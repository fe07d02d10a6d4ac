package faults

import (
	"reflect"
	"strings"
	"testing"

	"powercontainers/internal/sim"
)

func TestParseScheduleRoundTrip(t *testing.T) {
	spec := "meter:drop=0.1,spike=0.05,spikemag=8,stuck=0.02,jitter=0.1,jittermax=50000000,death=5000000000;" +
		"counter:wrap=5e+07,lostirq=0.01;socket:injectloss=0.05,sendloss=0.01"
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if s.Meter.DropoutP != 0.1 || s.Meter.JitterMax != 50*sim.Millisecond || s.Meter.DeathAt != 5*sim.Second {
		t.Fatalf("meter clause misparsed: %+v", s.Meter)
	}
	if s.Counter.WrapEvery != 5e7 || s.Counter.LostInterruptP != 0.01 {
		t.Fatalf("counter clause misparsed: %+v", s.Counter)
	}
	re, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("reparse of canonical form %q: %v", s.String(), err)
	}
	if !reflect.DeepEqual(s, re) {
		t.Fatalf("round trip diverged:\n  first:  %+v\n  second: %+v", s, re)
	}
	if s.String() != re.String() {
		t.Fatalf("canonical form is not a fixpoint: %q vs %q", s.String(), re.String())
	}
}

func TestParseScheduleEmpty(t *testing.T) {
	s, err := ParseSchedule("  ")
	if err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if s.Meter != nil || s.Counter != nil || s.Socket != nil {
		t.Fatalf("empty spec must yield an inert schedule: %+v", s)
	}
	if s.String() != "" {
		t.Fatalf("inert schedule must encode to empty string, got %q", s.String())
	}
}

func TestParseScheduleRejects(t *testing.T) {
	cases := []struct{ name, spec, wantErr string }{
		{"prob>1", "meter:drop=1.5", "outside [0,1]"},
		{"prob<0", "meter:spike=-0.1", "outside [0,1]"},
		{"nan", "meter:drop=NaN", "outside [0,1]"},
		{"sum>1", "meter:drop=0.5,spike=0.4,stuck=0.2", "exceeds 1"},
		{"badkey", "meter:frobs=1", "unknown meter param"},
		{"badtarget", "disk:x=1", "unknown target"},
		{"dupmeter", "meter:drop=0.1;meter:drop=0.2", "duplicate meter"},
		{"negwrap", "counter:wrap=-1", "must be finite"},
		{"negtime", "meter:jittermax=-5", "must be ≥ 0"},
		{"noclause", "meter", "not target:params"},
		{"nokv", "socket:yes", "not key=value"},
		// Node failure is not an injection site: every node<i> clause,
		// well-formed window or not, names an unknown target.
		{"node-clause", "node0:fail@0-10", "unknown target"},
		{"dupnode", "node1:fail@0-5;node1:fail@10-20", "unknown target"},
		{"inverted", "node0:fail@10-5", "unknown target"},
		{"empty-window", "node0:fail@5-5", "unknown target"},
		{"overlap", "node0:fail@0-10,fail@5-20", "unknown target"},
		{"unordered", "node0:fail@20-30,fail@0-10", "unknown target"},
		{"badnode", "nodeX:fail@0-1", "unknown target"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSchedule(c.spec)
			if err == nil {
				t.Fatalf("ParseSchedule(%q) accepted invalid spec", c.spec)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("ParseSchedule(%q) error %q does not mention %q", c.spec, err, c.wantErr)
			}
		})
	}
}

func TestSchedulePlanIsDeepCopy(t *testing.T) {
	s, err := ParseSchedule("meter:drop=0.1")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p := s.Plan(7)
	if p.Seed != 7 || p.Meter.DropoutP != 0.1 {
		t.Fatalf("plan misderived: %+v", p)
	}
	p.Meter.DropoutP = 0.9
	if s.Meter.DropoutP != 0.1 {
		t.Fatalf("Plan must deep-copy the schedule")
	}
}
