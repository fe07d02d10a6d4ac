package trace

import (
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// capture runs one traced WeBWorK request and returns its container.
func capture(t *testing.T) *core.Container {
	t.Helper()
	eng := sim.NewEngine()
	profile := power.MustProfile(cpu.SandyBridge)
	k, err := kernel.New("tl", cpu.SandyBridge, profile, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	coeff := model.Coefficients{Core: 6, Ins: 1.5, Cache: 130, Mem: 900, Chip: 5, Disk: 1.7, Net: 5.8, IncludesChipShare: true}
	fac := core.Attach(k, coeff, core.Config{Approach: core.ApproachChipShare})
	rng := sim.NewRand(8)
	dep := workload.WeBWorK{}.Deploy(k, rng)
	gen := server.NewLoadGen(k, fac, dep)
	gen.TraceRequests = true
	req := gen.InjectRequest()
	eng.Run()
	if !req.Finished() {
		t.Fatal("request did not finish")
	}
	return req.Cont
}

func TestTimelineRendersAllStages(t *testing.T) {
	c := capture(t)
	out := Timeline{Width: 60}.Render(c)
	for _, stage := range []string{"apache", "httpd", "mysqld", "latex", "dvipng"} {
		if !strings.Contains(out, stage) {
			t.Fatalf("timeline missing stage %s:\n%s", stage, out)
		}
	}
	if !strings.Contains(out, "#") {
		t.Fatal("timeline has no active spans")
	}
	if !strings.Contains(out, "F") {
		t.Fatal("timeline has no fork marks")
	}
	// Each lane line has the fixed width between the pipes.
	for _, line := range strings.Split(out, "\n") {
		if i := strings.IndexByte(line, '|'); i >= 0 {
			j := strings.LastIndexByte(line, '|')
			if j-i-1 != 60 {
				t.Fatalf("lane width %d, want 60: %q", j-i-1, line)
			}
		}
	}
}

func TestTimelineEventLogSorted(t *testing.T) {
	c := capture(t)
	log := Timeline{}.EventLog(c) // the request arrives at time 0
	lines := strings.Split(strings.TrimSpace(log), "\n")
	if len(lines) < 5 {
		t.Fatalf("event log too short:\n%s", log)
	}
	if !strings.Contains(log, "fork") || !strings.Contains(log, "exit") {
		t.Fatalf("event log missing kinds:\n%s", log)
	}
}

func TestTimelineWithoutTrace(t *testing.T) {
	c := &core.Container{Label: "x"}
	if out := (Timeline{}).Render(c); !strings.Contains(out, "no trace intervals") {
		t.Fatalf("unexpected: %s", out)
	}
}
