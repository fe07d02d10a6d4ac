package stream

import "fmt"

// Supervisor restarts a crashing streaming attempt with a bounded
// budget. It is deliberately mechanism-free: the caller supplies what a
// crash looks like (IsCrash), how long to wait between restarts (Sleep
// — exponential backoff in the CLI, nothing in deterministic tests),
// and how to measure durable progress (Progress — typically
// Store.LastSeq). Crash-loop detection lives on the progress axis: a
// crash is tolerable while the durable frontier advances between
// attempts; repeated deaths with no new durable record mean restarting
// cannot help, and the supervisor gives up before burning the budget.
type Supervisor struct {
	// MaxRestarts bounds restarts after the first attempt (default 8).
	MaxRestarts int
	// IsCrash classifies recovered panic values; panics it rejects are
	// real bugs and propagate. Nil recovers nothing (every panic
	// propagates), making the supervisor a plain retry-never loop.
	IsCrash func(r any) bool
	// Sleep waits before restart n (1-based); nil skips waiting.
	Sleep func(restart int)
	// Progress reports the durable frontier; nil disables crash-loop
	// detection.
	Progress func() int64
	// OnRestart observes each restart decision; may be nil.
	OnRestart func(restart int, cause string)
}

// maxStalls is how many consecutive zero-progress crashes the supervisor
// tolerates before declaring a crash loop.
const maxStalls = 2

// Run drives attempt until it returns, restarting on crashes within the
// budget. An attempt error is fatal (no restart: errors are reasoned
// refusals — corrupt store, bad config — that a restart cannot fix); a
// crash panic consumes budget; success returns nil.
func (s *Supervisor) Run(attempt func() error) error {
	maxRestarts := s.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = 8
	}
	var lastProgress int64
	if s.Progress != nil {
		lastProgress = s.Progress()
	}
	stalls := 0
	for restart := 0; ; restart++ {
		crash, err := s.try(attempt)
		if err != nil {
			return err
		}
		if crash == nil {
			return nil
		}
		if restart >= maxRestarts {
			return fmt.Errorf("stream: giving up after %d restarts: %v", restart, crash)
		}
		if s.Progress != nil {
			p := s.Progress()
			if p <= lastProgress {
				stalls++
				if stalls > maxStalls {
					return fmt.Errorf("stream: crash loop: %d consecutive restarts without durable progress (frontier %d): %v", stalls, p, crash)
				}
			} else {
				stalls = 0
			}
			lastProgress = p
		}
		if s.OnRestart != nil {
			s.OnRestart(restart+1, fmt.Sprint(crash))
		}
		if s.Sleep != nil {
			s.Sleep(restart + 1)
		}
	}
}

// try runs one attempt, converting an expected crash panic into a
// returned value and letting anything else propagate.
func (s *Supervisor) try(attempt func() error) (crash any, err error) {
	defer func() {
		if r := recover(); r != nil {
			if s.IsCrash == nil || !s.IsCrash(r) {
				panic(r)
			}
			crash = r
		}
	}()
	return nil, attempt()
}
