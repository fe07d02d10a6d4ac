package core

import (
	"math"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/sim"
)

func TestHierarchyRegistryGetOrCreate(t *testing.T) {
	h := NewHierarchy()
	a := h.Tenant("acme")
	if h.Tenant("acme") != a {
		t.Fatal("tenant not deduplicated")
	}
	web := h.Service("acme", "web")
	if h.Service("acme", "web") != web {
		t.Fatal("service not deduplicated")
	}
	if web.Tenant != a || web.Qualified() != "acme/web" {
		t.Fatalf("service wiring wrong: %+v", web)
	}
	h.Service("mallory", "burn")
	if h.NumTenants() != 2 || h.NumServices() != 2 {
		t.Fatalf("counts = %d tenants, %d services", h.NumTenants(), h.NumServices())
	}
	if h.TenantAt(0) != a || h.ServiceAt(0) != web {
		t.Fatal("registration order not preserved")
	}
	if _, ok := h.FindService("acme", "db"); ok {
		t.Fatal("FindService invented a service")
	}
	if _, ok := h.FindTenant("nobody"); ok {
		t.Fatal("FindTenant invented a tenant")
	}
}

func TestNewContainerInTagsAndAdopts(t *testing.T) {
	_, f := newRig(t, uniSpec, Config{})
	h := NewHierarchy()
	f.AttachHierarchy(h)
	c := f.NewContainerIn("acme", "web", "req")
	if c.Tenant != "acme" || c.Service != "web" || c.svc == nil {
		t.Fatalf("container not filed: %+v", c)
	}
	s, _ := h.FindService("acme", "web")
	if got := s.Containers(); len(got) != 1 || got[0] != c {
		t.Fatalf("service containers = %v", got)
	}
	if s.Usage().Requests != 1 || h.Tenant("acme").Usage().Requests != 1 {
		t.Fatal("request counts not rolled up")
	}
	// Flat containers stay flat even with a hierarchy attached.
	flat := f.NewContainer("flat")
	if flat.Tenant != "" || flat.svc != nil {
		t.Fatal("flat container was filed under the hierarchy")
	}
}

func TestNewContainerInPanicsWithoutHierarchy(t *testing.T) {
	_, f := newRig(t, uniSpec, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.NewContainerIn("acme", "web", "req")
}

func TestHierarchyChargingMatchesContainers(t *testing.T) {
	k, f := newRig(t, quadSpec, Config{Approach: ApproachChipShare})
	h := NewHierarchy()
	f.AttachHierarchy(h)

	web1 := f.NewContainerIn("acme", "web", "w1")
	web2 := f.NewContainerIn("acme", "web", "w2")
	burn := f.NewContainerIn("mallory", "burn", "b1")
	flat := f.NewContainer("flat")

	act := cpu.Activity{IPC: 1}
	k.Spawn("w1", kernel.Script(kernel.OpCompute{BaseCycles: 30e6, Act: act}), web1)
	k.Spawn("w2", kernel.Script(kernel.OpCompute{BaseCycles: 20e6, Act: act}, kernel.OpDisk{Bytes: 1e6}), web2)
	k.Spawn("b1", kernel.Script(kernel.OpCompute{BaseCycles: 40e6, Act: act}), burn)
	k.Spawn("f", kernel.Script(kernel.OpCompute{BaseCycles: 10e6, Act: act}), flat)
	k.Eng.Run()

	svc, _ := h.FindService("acme", "web")
	wantE := web1.EnergyJ() + web2.EnergyJ()
	if got := svc.Usage().EnergyJ(); math.Abs(got-wantE) > 1e-9 {
		t.Fatalf("service energy %.9f J, containers sum %.9f J", got, wantE)
	}
	if got := svc.RollUp().EnergyJ(); math.Abs(got-wantE) > 1e-9 {
		t.Fatalf("roll-up %.9f J, containers sum %.9f J", got, wantE)
	}
	if svc.Usage().CPUTime != web1.CPUTime+web2.CPUTime {
		t.Fatal("service cpu time mismatch")
	}
	if svc.Usage().DeviceEnergyJ != web2.DeviceEnergyJ {
		t.Fatal("device energy not charged to service")
	}
	acme := h.Tenant("acme")
	if math.Abs(acme.Usage().EnergyJ()-wantE) > 1e-9 {
		t.Fatal("tenant energy != sum of its services")
	}
	mallory := h.Tenant("mallory")
	if math.Abs(mallory.Usage().EnergyJ()-burn.EnergyJ()) > 1e-9 {
		t.Fatal("mallory tenant energy mismatch")
	}
	// Flat and background containers never leak into the hierarchy.
	var hierTotal float64
	for i := 0; i < h.NumTenants(); i++ {
		hierTotal += h.TenantAt(i).Usage().EnergyJ()
	}
	if hierTotal >= f.TotalAccountedEnergyJ() {
		t.Fatal("hierarchy swallowed flat/background energy")
	}
}

// TestHierarchyRollUpPermutationInvariant is the satellite property test:
// shuffling request completion order never changes tenant totals. Each
// trial applies the same per-container period charges, but interleaves
// whole requests in a random order; the incremental accumulators see
// different float addition orders, while the canonical roll-up (creation-
// order walk) must stay bit-identical — and the two must agree within the
// audit tolerance of 1e-9.
func TestHierarchyRollUpPermutationInvariant(t *testing.T) {
	const nReq = 24
	type charge struct {
		wall           sim.Time
		energyJ, chipJ float64
	}

	build := func() (*Hierarchy, []*Container, [][]charge) {
		h := NewHierarchy()
		gen := sim.NewRand(42)
		var conts []*Container
		var charges [][]charge
		for i := 0; i < nReq; i++ {
			ten := []string{"acme", "mallory", "zeta"}[gen.Intn(3)]
			svc := []string{"web", "db"}[gen.Intn(2)]
			c := &Container{ID: i + 1, Label: "req", Kind: KindRequest}
			h.Service(ten, svc).adopt(c)
			var cs []charge
			for p := 0; p < 1+gen.Intn(6); p++ {
				cs = append(cs, charge{
					wall:    sim.Time(1+gen.Intn(1000)) * sim.Microsecond,
					energyJ: gen.Float64() * 0.01,
					chipJ:   gen.Float64() * 0.002,
				})
			}
			conts = append(conts, c)
			charges = append(charges, cs)
		}
		return h, conts, charges
	}

	apply := func(h *Hierarchy, conts []*Container, charges [][]charge, order []int) {
		for _, i := range order {
			c := conts[i]
			for _, ch := range charges[i] {
				c.CPUTime += ch.wall
				c.CPUEnergyJ += ch.energyJ
				c.ChipEnergyJ += ch.chipJ
				c.svc.charge(ch.wall, ch.energyJ, ch.chipJ)
			}
		}
	}

	tenantTotals := func(h *Hierarchy) map[string]Usage {
		out := map[string]Usage{}
		for i := 0; i < h.NumTenants(); i++ {
			out[h.TenantAt(i).Name] = h.TenantAt(i).RollUp()
		}
		return out
	}

	// Reference: creation order.
	h0, conts0, charges0 := build()
	base := make([]int, nReq)
	for i := range base {
		base[i] = i
	}
	apply(h0, conts0, charges0, base)
	want := tenantTotals(h0)

	for trial := uint64(1); trial <= 20; trial++ {
		h, conts, charges := build()
		order := sim.NewRand(trial).Perm(nReq)
		apply(h, conts, charges, order)

		got := tenantTotals(h)
		for name, w := range want {
			g := got[name]
			// Canonical roll-ups must be bit-identical, not merely close:
			// the walk order is pinned to container creation order.
			if g != w {
				t.Fatalf("trial %d: tenant %s roll-up %+v != reference %+v", trial, name, g, w)
			}
			// Incremental accumulators saw a different addition order;
			// they must still agree within the audit tolerance.
			ten, _ := h.FindTenant(name)
			acc := ten.Usage()
			if math.Abs(acc.EnergyJ()-w.EnergyJ()) > 1e-9*math.Max(1, math.Abs(w.EnergyJ())) {
				t.Fatalf("trial %d: tenant %s incremental %.12f J vs canonical %.12f J",
					trial, name, acc.EnergyJ(), w.EnergyJ())
			}
			if acc.CPUTime != w.CPUTime || acc.Requests != w.Requests {
				t.Fatalf("trial %d: tenant %s integer totals drifted", trial, name)
			}
		}
	}
}

func TestHierarchySnapshotRoundTrip(t *testing.T) {
	h := NewHierarchy()
	h.Tenant("acme").Budget = Budget{PowerW: 25}
	c := &Container{ID: 1}
	h.Service("acme", "web").adopt(c)
	c.CPUEnergyJ = 1.5
	c.DeviceEnergyJ = 0.25
	c.CPUTime = 2 * sim.Second
	h.Service("mallory", "burn")

	snap := h.Snapshot()
	if snap.Version != SnapshotVersion || len(snap.Tenants) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	web := snap.FindTenant("acme").Services[0]
	if web.CPUEnergyJ != 1.5 || web.DeviceEnergyJ != 0.25 || web.CPUSeconds != 2 || web.Requests != 1 {
		t.Fatalf("service snapshot = %+v", web)
	}
	if web.EnergyJ() != 1.75 {
		t.Fatalf("EnergyJ = %g", web.EnergyJ())
	}

	h2, err := HierarchyFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Tenant("acme").Budget != (Budget{PowerW: 25}) {
		t.Fatal("budget not restored")
	}
	if _, ok := h2.FindService("mallory", "burn"); !ok {
		t.Fatal("structure not restored")
	}
	// Usage is run-scoped: the rebuilt registry starts from zero.
	if h2.Tenant("acme").Usage().Requests != 0 {
		t.Fatal("usage leaked into a fresh run")
	}

	if _, err := HierarchyFromSnapshot(HierarchySnapshot{Version: 99}); err == nil {
		t.Fatal("version mismatch accepted")
	}
	if _, err := HierarchyFromSnapshot(HierarchySnapshot{
		Version: SnapshotVersion, Tenants: []TenantSnapshot{{}},
	}); err == nil {
		t.Fatal("nameless tenant accepted")
	}
}

func TestSnapshotMergeAccumulates(t *testing.T) {
	var store HierarchySnapshot
	store.Version = SnapshotVersion
	store.EnsureService("acme", "web").Requests = 2
	store.EnsureTenant("acme").Budget = Budget{PowerW: 25}

	var run HierarchySnapshot
	run.Version = SnapshotVersion
	s := run.EnsureService("acme", "web")
	s.Requests = 3
	s.CPUEnergyJ = 1.25
	run.EnsureService("zeta", "db").Requests = 1

	store.Merge(run)
	web := store.FindTenant("acme").Services[0]
	if web.Requests != 5 || web.CPUEnergyJ != 1.25 {
		t.Fatalf("merged service = %+v", web)
	}
	// The run carried no budget: the stored one survives.
	if store.FindTenant("acme").Budget != (Budget{PowerW: 25}) {
		t.Fatal("merge clobbered stored budget")
	}
	if store.FindTenant("zeta") == nil {
		t.Fatal("merge dropped new tenant")
	}
	if got := store.FindTenant("acme").Totals(); got.Requests != 5 {
		t.Fatalf("totals = %+v", got)
	}
}
