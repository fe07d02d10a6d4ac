// Command pctrace captures one WeBWorK request execution and prints its
// per-stage power/energy attribution and request-flow events — the paper's
// Figure 4 demonstration of application-transparent multi-stage request
// tracking.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"powercontainers"
	"powercontainers/internal/experiments"
	"powercontainers/internal/trace"
)

// The -seed flag is the run's registered base seed: every generator in
// the simulation derives from it.
//
//pclint:seed
var seed = flag.Uint64("seed", 1, "simulation seed")

func main() {
	summary := flag.Bool("summary", false, "print only the run summary via the public API")
	flag.Parse()

	if *summary {
		sys, err := powercontainers.NewSystem("SandyBridge", powercontainers.WithSeed(*seed))
		if err != nil {
			fail(err)
		}
		run, err := sys.NewRun("WeBWorK", powercontainers.HalfLoad)
		if err != nil {
			fail(err)
		}
		run.EnableRequestTracing()
		rep, err := run.Execute(6 * time.Second)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep.Summary())
		return
	}

	r, err := experiments.Fig4(experiments.Exec{}, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Print(r.Render())
	fmt.Println()
	tl := trace.Timeline{Width: 72, Origin: r.Request.Arrive}
	fmt.Print(tl.Render(r.Request.Cont))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pctrace:", err)
	os.Exit(1)
}
