// Package runner executes deterministic job plans on a bounded worker
// pool. The experiments layer decomposes an experiment — a grid of fully
// independent machine simulations — into a Plan of self-contained Jobs;
// the runner fans the jobs out across up to N workers and assembles the
// results by job index, so an experiment's output is byte-identical
// regardless of worker count or completion order.
//
// Determinism contract: a Job must be self-contained. It owns its own
// sim.Engine and RNG (seeded from the experiment seed, optionally mixed
// with the job key via SeedFor) and shares no mutable state with other
// jobs. The runner guarantees nothing else: it does not order job
// *execution*, only job *results*.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one self-contained unit of work: typically a full machine
// simulation (engine, kernel, facility, meters) plus the reduction of its
// measurements into one result cell.
type Job struct {
	// Key labels the job in error messages and is the conventional input
	// to SeedFor when a job needs its own derived seed.
	Key string
	// Run executes the job. It runs on an arbitrary worker goroutine and
	// must not touch state shared with other jobs.
	Run func() (any, error)
}

// Plan is an ordered list of jobs. The order fixes the order of the
// result slice, not the order of execution.
type Plan struct {
	jobs []Job
}

// Add appends a job to the plan.
func (p *Plan) Add(key string, run func() (any, error)) {
	p.jobs = append(p.jobs, Job{Key: key, Run: run})
}

// defaultJobs overrides the default worker bound when positive
// (SetDefaultJobs). cmd/pcbench's -jobs flag lands here, so it also bounds
// plans that run at the default, such as calib.Calibrate's.
var defaultJobs atomic.Int64

// DefaultJobs returns the worker bound used when Run is called with
// jobs <= 0: the SetDefaultJobs override if set, else GOMAXPROCS.
func DefaultJobs() int {
	if n := defaultJobs.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultJobs sets the process-default worker bound; n <= 0 restores
// the GOMAXPROCS default.
func SetDefaultJobs(n int) {
	if n < 0 {
		n = 0
	}
	defaultJobs.Store(int64(n))
}

// Run executes the plan's jobs on at most jobs concurrent workers
// (jobs <= 0 selects DefaultJobs) and returns one result per job, indexed
// by plan position. Every job runs even if another fails; the returned
// error is the lowest-index failure, so the outcome is independent of
// completion order.
func Run(p *Plan, jobs int) ([]any, error) {
	n := len(p.jobs)
	if n == 0 {
		return nil, nil
	}
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	if jobs > n {
		jobs = n
	}
	results := make([]any, n)
	errs := make([]error, n)
	if jobs == 1 {
		for i := range p.jobs {
			results[i], errs[i] = p.jobs[i].Run()
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(jobs)
		for w := 0; w < jobs; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = p.jobs[i].Run()
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: job %s: %w", p.jobs[i].Key, err)
		}
	}
	return results, nil
}

// Collect runs the plan and asserts every result to T.
func Collect[T any](p *Plan, jobs int) ([]T, error) {
	raw, err := Run(p, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(raw))
	for i, r := range raw {
		v, ok := r.(T)
		if !ok {
			return nil, fmt.Errorf("runner: job %s returned %T, want %T", p.jobs[i].Key, r, *new(T))
		}
		out[i] = v
	}
	return out, nil
}

// SeedFor derives a job seed from the experiment seed and the job key:
// an FNV-1a hash of the key mixed into the base through a splitmix64
// finalizer. Distinct keys yield well-separated, reproducible streams.
func SeedFor(base uint64, key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	x := base ^ h
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
