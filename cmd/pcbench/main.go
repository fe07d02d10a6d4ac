// Command pcbench regenerates the tables and figures of "Power Containers"
// (ASPLOS 2013) on the simulated testbed.
//
// Usage:
//
//	pcbench -list
//	pcbench [-seed N] [-jobs N] <id>...   # fig1..fig14, table1, coeffs, overhead,
//	                                      # ablations, cluster3, faultmatrix
//	pcbench [-seed N] [-jobs N] all
//
// -jobs bounds the worker pool (default: GOMAXPROCS). Distinct experiments,
// the independent cells inside grid experiments and the configurations of
// each machine's offline calibration run concurrently, but output is
// byte-identical at any -jobs value: every job owns its own simulation
// engine and RNG, and results assemble by plan index. -jobs 1 runs
// everything serially.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"powercontainers"
	"powercontainers/internal/runner"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	seed := flag.Uint64("seed", 1, "simulation seed (identical seeds reproduce identical results)")
	jobs := flag.Int("jobs", 0, "max concurrent simulation jobs (0 = GOMAXPROCS); output is identical at any value")
	flag.Parse()
	// The flag is also the process default, so plans that take no
	// explicit bound — calibration's among them — honour it.
	runner.SetDefaultJobs(*jobs)

	if *list {
		for _, e := range powercontainers.ListExperiments() {
			alias := ""
			if len(e.Aliases) > 0 {
				alias = fmt.Sprintf(" (includes %v)", e.Aliases)
			}
			fmt.Printf("%-9s %s%s\n", e.ID, e.Title, alias)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pcbench [-seed N] [-jobs N] <id>... | all | -list")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range powercontainers.ListExperiments() {
			ids = append(ids, e.ID)
		}
	}

	//pclint:allow detlint wall-clock timing summary for the operator, not experiment output
	start := time.Now()
	runs, err := powercontainers.RunExperiments(ids, *seed, *jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
		os.Exit(1)
	}
	//pclint:allow detlint wall-clock timing summary for the operator, not experiment output
	wall := time.Since(start)

	for _, r := range runs {
		fmt.Print(r.Output)
		fmt.Printf("[%s completed in %v]\n\n", r.ID, r.Elapsed.Round(time.Millisecond))
	}

	if len(runs) > 1 {
		var sum time.Duration
		fmt.Println("timing summary:")
		for _, r := range runs {
			sum += r.Elapsed
			fmt.Printf("  %-9s %v\n", r.ID, r.Elapsed.Round(time.Millisecond))
		}
		njobs := runner.DefaultJobs()
		fmt.Printf("  %-9s %v (sum of experiment times)\n", "total", sum.Round(time.Millisecond))
		fmt.Printf("  %-9s %v (speedup %.2fx at jobs=%d)\n", "wall",
			wall.Round(time.Millisecond), float64(sum)/float64(wall), njobs)
	}
}
