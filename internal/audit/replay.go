package audit

// Accounting hash: the simulation is a pure function of its seed, so two
// runs of an experiment must export bit-identical per-request accounting.
// The content hash covers both canonical export encodings (CSV and JSON),
// catching nondeterminism anywhere between the event queue and the
// serializers.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"powercontainers/internal/export"
)

// HashAccounting returns a hex SHA-256 content hash over the canonical
// CSV and JSON encodings of the given request records.
func HashAccounting(recs []export.RequestRecord) (string, error) {
	var buf bytes.Buffer
	if err := export.WriteCSV(&buf, recs); err != nil {
		return "", fmt.Errorf("audit: hash CSV: %w", err)
	}
	if err := export.WriteJSON(&buf, recs); err != nil {
		return "", fmt.Errorf("audit: hash JSON: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
