package faults

import (
	"reflect"
	"testing"
)

// FuzzCrashPlan fuzzes the crash-plan decoder: accepted
// plans must satisfy the documented invariants — a known op with index
// ≥ 1 and keep ≥ 0 when a crash clause is present, every corruption in
// exactly one of bit-flip (mask 1..255) or truncate (trunc ≥ 0) mode —
// and the canonical String form must reparse to an equal plan.
// Rejection is always an error value, never a panic.
func FuzzCrashPlan(f *testing.F) {
	f.Add("crash:op=sync,match=wal-,index=3,keep=5,at=post;corrupt:file=.seg,off=-1,mask=64")
	f.Add("crash:op=write,match=wal-,index=40,keep=6")
	f.Add("crash:op=rename,match=checkpoint.ck,index=2,at=post")
	f.Add("corrupt:file=.seg,trunc=200")
	f.Add("")
	f.Add("crash:op=sync;crash:op=write")  // duplicate crash: must reject
	f.Add("crash:op=chmod,index=1")        // unknown op: must reject
	f.Add("crash:op=sync,index=0")         // index < 1: must reject
	f.Add("crash:op=sync,keep=-1")         // negative keep: must reject
	f.Add("corrupt:file=x,mask=0")         // mask 0: must reject
	f.Add("corrupt:file=x,mask=1,trunc=2") // both modes: must reject
	f.Add("corrupt:file=x,off=5,trunc=3")  // off in trunc mode: must reject
	f.Add("crash:op=sync,at=mid")          // bad at: must reject
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseCrashPlan(spec)
		if err != nil {
			return
		}
		check := func(pl *CrashPlan, which string) {
			if pl.Point.Op != "" {
				if !crashOpKnown(pl.Point.Op) {
					t.Fatalf("%s: accepted unknown op %q", which, pl.Point.Op)
				}
				if pl.Point.Index < 1 || pl.Point.Keep < 0 {
					t.Fatalf("%s: accepted bad crash point %+v", which, pl.Point)
				}
			}
			for _, c := range pl.Corruptions {
				if c.Mask == 0 && c.Trunc < 0 {
					t.Fatalf("%s: accepted negative trunc %+v", which, c)
				}
				if c.Mask == 0 && c.Off != 0 {
					t.Fatalf("%s: accepted off in truncate mode %+v", which, c)
				}
			}
		}
		check(p, "first parse")
		canon := p.String()
		re, err := ParseCrashPlan(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q rejected: %v", canon, spec, err)
		}
		check(re, "reparse")
		if !reflect.DeepEqual(p, re) {
			t.Fatalf("canonical round trip diverged for %q:\n  %+v\n  %+v", spec, p, re)
		}
		if re.String() != canon {
			t.Fatalf("String not a fixpoint: %q vs %q", canon, re.String())
		}
	})
}
