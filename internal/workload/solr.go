package workload

import (
	"powercontainers/internal/kernel"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// Solr is the Apache Solr / Lucene search workload: full-text queries over
// an in-memory Wikipedia index served from a Tomcat servlet container
// (§4.2). Request energy varies mostly through execution-time differences
// across queries (Figure 7), not through power differences.
type Solr struct{}

// Name implements Workload.
func (Solr) Name() string { return "Solr" }

type solrParams struct {
	parseCycles  float64
	searchCycles float64
	resultBytes  int64
}

const (
	solrParseCycles      = 2e6
	solrSearchBaseCycles = 8e6
	solrSearchMeanExtra  = 26e6
	solrSearchMaxCycles  = 150e6
)

// Deploy implements Workload.
func (Solr) Deploy(k *kernel.Kernel, rng *sim.Rand) *server.Deployment {
	entry := kernel.NewListener("solr")
	handler := func(worker int) server.Handler {
		return func(k *kernel.Kernel, t *kernel.Task, payload any) []kernel.Op {
			env := payload.(*server.Envelope)
			p := env.Req.Payload.(solrParams)
			return []kernel.Op{
				kernel.OpCompute{BaseCycles: p.parseCycles, Act: ActSolrParse},
				kernel.OpCompute{BaseCycles: p.searchCycles, Act: ActSolrSearch},
				kernel.OpNet{Bytes: p.resultBytes},
			}
		}
	}
	server.NewEntryPool(k, "tomcat", 2*k.Spec.Cores(), entry, handler)

	newRequest := func() *server.Request {
		// Query cost: exponential tail over a base, like the skewed
		// popularity/length mix of Wikipedia-title queries.
		search := solrSearchBaseCycles + rng.ExpFloat64(solrSearchMeanExtra)
		if search > solrSearchMaxCycles {
			search = solrSearchMaxCycles
		}
		return &server.Request{
			Type: "solr/query",
			Payload: solrParams{
				parseCycles:  solrParseCycles * jitter(rng, 0.1),
				searchCycles: search,
				resultBytes:  20<<10 + int64(rng.Intn(60<<10)),
			},
		}
	}
	mean := meanServiceSec(k.Spec, solrParseCycles, ActSolrParse) +
		meanServiceSec(k.Spec, solrSearchBaseCycles+solrSearchMeanExtra, ActSolrSearch)
	return &server.Deployment{
		Entry:          entry,
		NewRequest:     newRequest,
		MeanServiceSec: mean,
	}
}
