package workload

import (
	"fmt"
	"math"

	"powercontainers/internal/kernel"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// WeBWorK is the web-based homework system (§4.2): a multi-stage request
// flow matching the captured execution of Figure 4 — an Apache front end,
// a Perl httpd worker, a MySQL thread reached over a persistent socket, and
// external latex/dvipng processes forked through a shell. Tests are driven
// by ~3,000 teacher-created problem sets with a Zipf popularity skew.
type WeBWorK struct {
	// TopProblems restricts the workload to the N most popular problem
	// sets (Figure 10's "new composition" uses the top 10); 0 means all.
	TopProblems int
}

// Name implements Workload.
func (WeBWorK) Name() string { return "WeBWorK" }

// NumProblems is the problem-set catalog size.
const NumProblems = 3000

// Per-stage base cycle budgets at difficulty 1.0, chosen to land near the
// Figure 4 stage energies (httpd ≈1.8 J, latex ≈0.5 J, dvipng ≈0.3 J...).
const (
	wwApacheCycles = 50e6
	wwPHP1Cycles   = 120e6
	wwPHP2Cycles   = 150e6
	wwPHP3Cycles   = 100e6
	wwMySQLCycles  = 9e6
	wwShellCycles  = 14e6
	wwLatexCycles  = 110e6
	wwDvipngCycles = 52e6
)

// ProblemDifficulty returns problem i's deterministic work scale factor:
// a golden-ratio scramble in [0.3, 1.7] boosted for popular problems (the
// heavily-assigned problem sets at the real site are the more elaborate
// ones). The top-10 prefix therefore has a distinctly higher mean than the
// catalog, which is what makes Figure 10's composition-change prediction
// non-trivial.
func ProblemDifficulty(i int) float64 {
	const phi = 0.6180339887498949
	_, frac := math.Modf(float64(i+1) * phi)
	base := 0.3 + 1.4*frac
	return base * (1 + 0.6*math.Exp(-float64(i)/6))
}

// ProblemLabel is the request-type label of problem i, so per-problem
// energy profiles accumulate in distinct container labels (Figure 10
// predicts power for a composition of specific problem sets).
func ProblemLabel(i int) string {
	return fmt.Sprintf("webwork/p%04d", i)
}

// ProblemWeights returns the Zipf-ish popularity weights of the catalog.
func ProblemWeights() []float64 {
	w := make([]float64, NumProblems)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), 0.8)
	}
	return w
}

type wwParams struct {
	d float64 // difficulty scale
}

type wwQuery struct {
	cycles float64
}

type wwJob struct {
	p wwParams
}

// Deploy implements Workload.
func (w WeBWorK) Deploy(k *kernel.Kernel, rng *sim.Rand) *server.Deployment {
	entry := kernel.NewListener("webwork")
	nWorkers := 3 * k.Spec.Cores()

	factory := func(worker int) server.Handler {
		// Each apache worker owns a persistent connection to its
		// httpd worker, which owns one to its MySQL thread — the
		// paper's persistent-socket request propagation scenario.
		apacheEnd, httpdEnd := kernel.NewConn()
		httpdDBEnd, mysqlEnd := kernel.NewConn()

		server.NewAuxWorker(k, "mysqld", mysqlEnd, func(k *kernel.Kernel, t *kernel.Task, payload any, ops []kernel.Op) []kernel.Op {
			q := payload.(wwQuery)
			return append(ops,
				kernel.Compute(q.cycles, ActMySQL),
				kernel.Send(mysqlEnd, 4<<10, nil),
			)
		})

		server.NewAuxWorker(k, "httpd", httpdEnd, func(k *kernel.Kernel, t *kernel.Task, payload any, ops []kernel.Op) []kernel.Op {
			job := payload.(wwJob)
			d := job.p.d
			shell := kernel.Script(
				kernel.Compute(wwShellCycles, ActShell),
				kernel.Fork("latex", kernel.Script(
					kernel.Compute(wwLatexCycles*d, ActLatex),
				)),
				kernel.WaitChild(),
				// Harder problems render disproportionately more
				// images: dvipng work grows quadratically with
				// difficulty, shifting the request's power mix
				// toward the hottest stage.
				kernel.Fork("dvipng", kernel.Script(
					kernel.Compute(wwDvipngCycles*d*d, ActDvipng),
				)),
				kernel.WaitChild(),
			)
			return append(ops,
				kernel.Compute(wwPHP1Cycles*d, ActPerl),
				kernel.Send(httpdDBEnd, 900, wwQuery{cycles: wwMySQLCycles * d}),
				kernel.Recv(httpdDBEnd),
				kernel.Compute(wwPHP2Cycles*d, ActPerl),
				kernel.Fork("sh", shell),
				kernel.WaitChild(),
				kernel.Compute(wwPHP3Cycles*d, ActPerl),
				kernel.Disk(50<<10),
				kernel.Send(httpdEnd, 30<<10, nil),
			)
		})

		return func(k *kernel.Kernel, t *kernel.Task, payload any, ops []kernel.Op) []kernel.Op {
			p := *payload.(*server.Request).Payload.(*wwParams)
			return append(ops,
				kernel.Compute(wwApacheCycles, ActPerl),
				kernel.Send(apacheEnd, 2<<10, wwJob{p: p}),
				kernel.Recv(apacheEnd),
				kernel.Net(60<<10),
			)
		}
	}
	server.NewEntryPool(k, "apache", nWorkers, entry, factory)

	weights := ProblemWeights()
	if w.TopProblems > 0 && w.TopProblems < len(weights) {
		weights = weights[:w.TopProblems]
	}
	newRequest := func() *server.Request {
		i := rng.Pick(weights)
		return server.NewRequestWith(ProblemLabel(i), wwParams{d: ProblemDifficulty(i) * jitter(rng, 0.05)})
	}

	// Mean difficulty (and squared difficulty, for the quadratic dvipng
	// stage) over the possibly restricted catalog, weighted by popularity.
	var wsum, dsum, d2sum float64
	for i, wt := range weights {
		d := ProblemDifficulty(i)
		wsum += wt
		dsum += wt * d
		d2sum += wt * d * d
	}
	meanD := dsum / wsum
	meanD2 := d2sum / wsum
	perReq := wwApacheCycles + meanD*(wwPHP1Cycles+wwPHP2Cycles+wwPHP3Cycles+
		wwMySQLCycles+wwLatexCycles) + meanD2*wwDvipngCycles + wwShellCycles
	return &server.Deployment{
		Entry:          entry,
		NewRequest:     newRequest,
		MeanServiceSec: meanServiceSec(k.Spec, perReq, ActPerl),
	}
}
