package server

import (
	"fmt"
	"math"

	"powercontainers/internal/sim"
)

// ClientPool draws request principals with a Zipf-like popularity skew, as
// real multi-tenant traffic does: a few heavy clients dominate, with a long
// tail of occasional ones. Per-client energy accounting (§1) exists exactly
// to expose that skew.
type ClientPool struct {
	names   []string
	weights []float64
	rng     *sim.Rand
}

// NewClientPool builds a pool of n clients ("client-000"...) with Zipf
// exponent s (≈0.9 is typical web-tenant skew).
func NewClientPool(n int, s float64, rng *sim.Rand) *ClientPool {
	if n <= 0 {
		panic("server: client pool needs at least one client")
	}
	p := &ClientPool{rng: rng}
	for i := 0; i < n; i++ {
		p.names = append(p.names, fmt.Sprintf("client-%03d", i))
		p.weights = append(p.weights, 1/math.Pow(float64(i+1), s))
	}
	return p
}

// Draw returns the next request's client.
func (p *ClientPool) Draw() string {
	return p.names[p.rng.Pick(p.weights)]
}
