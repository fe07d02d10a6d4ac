package core

import (
	"fmt"

	"powercontainers/internal/sim"
)

// This file implements the three-level container hierarchy of ROADMAP
// item 2: Tenant → Service → Container(request). The paper's accounting is
// client-oriented (§1, §3.3) — bill the principal causing the work for the
// full energy of the work — and the hierarchy generalizes the per-request
// container to the two aggregation levels a multi-tenant server actually
// bills and polices: the service a request arrived at, and the tenant that
// owns the service.
//
// Two parallel views of every node's usage are maintained:
//
//   - an incremental accumulator, charged in simulation order from the
//     facility's attribution paths (samplePeriod, OnIO). O(1) per period,
//     readable mid-run — this is what budget enforcement and the streaming
//     engine consume.
//   - a canonical roll-up, recomputed on demand by walking the node's
//     containers in creation (ID) order. Because float addition is not
//     associative, summing in a fixed order is what makes tenant totals
//     independent of request completion order (the same permutation-
//     invariance trick Eq. 3 uses for chip shares). The audit layer checks
//     the two views agree within 1e-9.

// Budget caps a tenant's resource draw. Zero values mean "uncapped".
type Budget struct {
	// PowerW caps the tenant's aggregate modeled active power. While the
	// tenant's running requests together draw more, the conditioner
	// throttles the worst (highest-power) of them first (§3.4 composed one
	// level up).
	PowerW float64 `json:"power_w,omitempty"`
	// EnergyJ caps the tenant's total attributed energy; once exhausted
	// every request of the tenant runs at the duty floor.
	EnergyJ float64 `json:"energy_j,omitempty"`
}

// IsZero reports whether no cap is configured.
func (b Budget) IsZero() bool { return b.PowerW <= 0 && b.EnergyJ <= 0 }

// Usage is a roll-up of attributed consumption at one hierarchy node.
type Usage struct {
	// CPUEnergyJ is modeled processor-side energy; ChipEnergyJ is the
	// chip-maintenance portion of it (attributed via Eq. 3); DeviceEnergyJ
	// is attributed disk/network energy.
	CPUEnergyJ    float64
	ChipEnergyJ   float64
	DeviceEnergyJ float64
	// CPUTime is total attributed busy time.
	CPUTime sim.Time
	// Requests counts containers filed under the node.
	Requests int
}

// EnergyJ is total attributed energy: CPU plus devices.
func (u Usage) EnergyJ() float64 { return u.CPUEnergyJ + u.DeviceEnergyJ }

// add folds a container's lifetime totals into the roll-up.
func (u *Usage) add(c *Container) {
	u.CPUEnergyJ += c.CPUEnergyJ
	u.ChipEnergyJ += c.ChipEnergyJ
	u.DeviceEnergyJ += c.DeviceEnergyJ
	u.CPUTime += c.CPUTime
	u.Requests++
}

// Service is the middle hierarchy level: one named service of a tenant,
// owning the request containers created on its behalf.
type Service struct {
	// Name is the service name, unique within its tenant.
	Name string
	// Tenant is the owning tenant.
	Tenant *Tenant
	// Index is the service's global registration order across the
	// hierarchy (creation order, used as its stable stream record ID).
	Index int

	containers []*Container // creation order
	acc        Usage        // incremental accumulator (simulation order)
}

// Qualified returns the "tenant/service" path.
func (s *Service) Qualified() string { return s.Tenant.Name + "/" + s.Name }

// Containers returns the service's request containers in creation order.
func (s *Service) Containers() []*Container {
	return append([]*Container(nil), s.containers...)
}

// Usage returns the incrementally charged accumulator — the live view, in
// lockstep with the facility's attribution.
func (s *Service) Usage() Usage { return s.acc }

// RollUp recomputes the service's usage by summing its containers in
// creation order — the canonical, permutation-invariant roll-up. The audit
// layer checks it matches the incremental view within 1e-9.
func (s *Service) RollUp() Usage {
	var u Usage
	for _, c := range s.containers {
		u.add(c)
	}
	return u
}

// adopt files a container under the service.
func (s *Service) adopt(c *Container) {
	c.Tenant = s.Tenant.Name
	c.Service = s.Name
	c.svc = s
	s.containers = append(s.containers, c)
	s.acc.Requests++
	s.Tenant.acc.Requests++
}

// charge folds one attribution period into the incremental accumulators of
// the service and its tenant.
func (s *Service) charge(wall sim.Time, energyJ, chipEnergyJ float64) {
	s.acc.CPUTime += wall
	s.acc.CPUEnergyJ += energyJ
	s.acc.ChipEnergyJ += chipEnergyJ
	t := s.Tenant
	t.acc.CPUTime += wall
	t.acc.CPUEnergyJ += energyJ
	t.acc.ChipEnergyJ += chipEnergyJ
}

// chargeDevice folds attributed device energy into the incremental
// accumulators.
func (s *Service) chargeDevice(joules float64) {
	s.acc.DeviceEnergyJ += joules
	s.Tenant.acc.DeviceEnergyJ += joules
}

// Tenant is the top hierarchy level: the billed principal.
type Tenant struct {
	// Name is the tenant name, unique within the hierarchy.
	Name string
	// Budget caps the tenant's draw; the conditioner enforces it.
	Budget Budget
	// Index is the tenant's registration order in the hierarchy.
	Index int

	services []*Service // registration order
	svcIdx   map[string]int
	acc      Usage

	// budgetThrottles counts conditioner decisions forced by this
	// tenant's budget (beyond what fair per-request conditioning chose).
	budgetThrottles uint64
}

// Services returns the tenant's services in registration order.
func (t *Tenant) Services() []*Service {
	return append([]*Service(nil), t.services...)
}

// Usage returns the incrementally charged accumulator.
func (t *Tenant) Usage() Usage { return t.acc }

// RollUp recomputes the tenant's usage from its services' canonical
// roll-ups in registration order.
func (t *Tenant) RollUp() Usage {
	var u Usage
	for _, s := range t.services {
		su := s.RollUp()
		u.CPUEnergyJ += su.CPUEnergyJ
		u.ChipEnergyJ += su.ChipEnergyJ
		u.DeviceEnergyJ += su.DeviceEnergyJ
		u.CPUTime += su.CPUTime
		u.Requests += su.Requests
	}
	return u
}

// BudgetThrottles returns how many conditioner decisions this tenant's
// budget forced.
func (t *Tenant) BudgetThrottles() uint64 { return t.budgetThrottles }

// Hierarchy is the tenant→service→request registry. It is not
// goroutine-safe; like the facility it belongs to exactly one simulated
// machine and is driven from its event loop.
type Hierarchy struct {
	tenants  []*Tenant // registration order
	tIdx     map[string]int
	services []*Service // global registration order
}

// NewHierarchy creates an empty registry.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{tIdx: make(map[string]int)}
}

// Tenant returns the named tenant, creating it on first use.
func (h *Hierarchy) Tenant(name string) *Tenant {
	if name == "" {
		panic("core: empty tenant name")
	}
	if i, ok := h.tIdx[name]; ok {
		return h.tenants[i]
	}
	t := &Tenant{Name: name, Index: len(h.tenants), svcIdx: make(map[string]int)}
	h.tIdx[name] = t.Index
	h.tenants = append(h.tenants, t)
	return t
}

// Service returns the tenant's named service, creating both on first use.
func (h *Hierarchy) Service(tenant, service string) *Service {
	if service == "" {
		panic("core: empty service name")
	}
	t := h.Tenant(tenant)
	if i, ok := t.svcIdx[service]; ok {
		return t.services[i]
	}
	s := &Service{Name: service, Tenant: t, Index: len(h.services)}
	t.svcIdx[service] = len(t.services)
	t.services = append(t.services, s)
	h.services = append(h.services, s)
	return s
}

// FindTenant looks up a tenant without creating it.
func (h *Hierarchy) FindTenant(name string) (*Tenant, bool) {
	i, ok := h.tIdx[name]
	if !ok {
		return nil, false
	}
	return h.tenants[i], true
}

// FindService looks up a service without creating it.
func (h *Hierarchy) FindService(tenant, service string) (*Service, bool) {
	t, ok := h.FindTenant(tenant)
	if !ok {
		return nil, false
	}
	i, ok := t.svcIdx[service]
	if !ok {
		return nil, false
	}
	return t.services[i], true
}

// NumTenants returns how many tenants are registered; TenantAt returns the
// i-th in registration order. The pair is the incremental-scan surface the
// streaming engine uses (mirroring Facility.NumContainers/ContainerAt).
func (h *Hierarchy) NumTenants() int          { return len(h.tenants) }
func (h *Hierarchy) TenantAt(i int) *Tenant   { return h.tenants[i] }
func (h *Hierarchy) NumServices() int         { return len(h.services) }
func (h *Hierarchy) ServiceAt(i int) *Service { return h.services[i] }

// ---- snapshots ----

// SnapshotVersion is the persistent hierarchy snapshot format version.
const SnapshotVersion = 1

// ServiceSnapshot is one service's persisted configuration and usage.
type ServiceSnapshot struct {
	Name          string  `json:"name"`
	CPUEnergyJ    float64 `json:"cpu_energy_j"`
	ChipEnergyJ   float64 `json:"chip_energy_j"`
	DeviceEnergyJ float64 `json:"device_energy_j"`
	CPUSeconds    float64 `json:"cpu_seconds"`
	Requests      int     `json:"requests"`
}

// TenantSnapshot is one tenant's persisted configuration and usage.
type TenantSnapshot struct {
	Name     string            `json:"name"`
	Budget   Budget            `json:"budget"`
	Services []ServiceSnapshot `json:"services,omitempty"`
}

// HierarchySnapshot is the versioned persistent form of a hierarchy:
// structure, budgets, and canonical usage roll-ups. Like podman's state
// stores it is configuration plus last-known stats — live request
// containers are run-scoped and never persisted.
type HierarchySnapshot struct {
	Version int              `json:"version"`
	Tenants []TenantSnapshot `json:"tenants,omitempty"`
	// Checksum is the CRC32C (hex) of the snapshot's canonical encoding
	// with this field empty, set by persistent stores on Save and
	// verified on Load. Empty means a legacy store written before
	// checksums existed, which loads without verification.
	Checksum string `json:"checksum,omitempty"`
}

// Snapshot captures the hierarchy's structure, budgets, and canonical
// roll-ups (creation-order sums, so byte-stable across completion-order
// permutations).
func (h *Hierarchy) Snapshot() HierarchySnapshot {
	snap := HierarchySnapshot{Version: SnapshotVersion}
	for _, t := range h.tenants {
		ts := TenantSnapshot{Name: t.Name, Budget: t.Budget}
		for _, s := range t.services {
			u := s.RollUp()
			ts.Services = append(ts.Services, ServiceSnapshot{
				Name:          s.Name,
				CPUEnergyJ:    u.CPUEnergyJ,
				ChipEnergyJ:   u.ChipEnergyJ,
				DeviceEnergyJ: u.DeviceEnergyJ,
				CPUSeconds:    float64(u.CPUTime) / float64(sim.Second),
				Requests:      u.Requests,
			})
		}
		snap.Tenants = append(snap.Tenants, ts)
	}
	return snap
}

// HierarchyFromSnapshot rebuilds a registry's structure and budgets from a
// snapshot. Usage numbers are not restored: roll-ups describe finished
// runs, and a new run's containers start from zero (the snapshot's stats
// remain in the store for powerctl to aggregate).
func HierarchyFromSnapshot(snap HierarchySnapshot) (*Hierarchy, error) {
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: hierarchy snapshot version %d (want %d)", snap.Version, SnapshotVersion)
	}
	h := NewHierarchy()
	for _, ts := range snap.Tenants {
		if ts.Name == "" {
			return nil, fmt.Errorf("core: hierarchy snapshot has a tenant with no name")
		}
		t := h.Tenant(ts.Name)
		t.Budget = ts.Budget
		for _, ss := range ts.Services {
			if ss.Name == "" {
				return nil, fmt.Errorf("core: tenant %q has a service with no name", ts.Name)
			}
			h.Service(ts.Name, ss.Name)
		}
	}
	return h, nil
}

// ---- snapshot helpers (powerctl's working set) ----

// FindTenant returns the named tenant snapshot, or nil.
func (s *HierarchySnapshot) FindTenant(name string) *TenantSnapshot {
	for i := range s.Tenants {
		if s.Tenants[i].Name == name {
			return &s.Tenants[i]
		}
	}
	return nil
}

// EnsureTenant returns the named tenant snapshot, appending it on first
// use.
func (s *HierarchySnapshot) EnsureTenant(name string) *TenantSnapshot {
	if t := s.FindTenant(name); t != nil {
		return t
	}
	s.Tenants = append(s.Tenants, TenantSnapshot{Name: name})
	return &s.Tenants[len(s.Tenants)-1]
}

// EnsureService returns the tenant's named service snapshot, appending
// tenant and service on first use.
func (s *HierarchySnapshot) EnsureService(tenant, service string) *ServiceSnapshot {
	t := s.EnsureTenant(tenant)
	for i := range t.Services {
		if t.Services[i].Name == service {
			return &t.Services[i]
		}
	}
	t.Services = append(t.Services, ServiceSnapshot{Name: service})
	return &t.Services[len(t.Services)-1]
}

// Merge folds another snapshot into this one: usage adds up, structure is
// adopted, and a non-zero budget in other replaces the stored one. This is
// how powerctl ingests per-run roll-ups into the long-lived store.
func (s *HierarchySnapshot) Merge(other HierarchySnapshot) {
	for _, ot := range other.Tenants {
		t := s.EnsureTenant(ot.Name)
		if !ot.Budget.IsZero() {
			t.Budget = ot.Budget
		}
		for _, os := range ot.Services {
			ss := s.EnsureService(ot.Name, os.Name)
			ss.CPUEnergyJ += os.CPUEnergyJ
			ss.ChipEnergyJ += os.ChipEnergyJ
			ss.DeviceEnergyJ += os.DeviceEnergyJ
			ss.CPUSeconds += os.CPUSeconds
			ss.Requests += os.Requests
		}
	}
}

// EnergyJ is the service snapshot's total attributed energy.
func (s ServiceSnapshot) EnergyJ() float64 { return s.CPUEnergyJ + s.DeviceEnergyJ }

// Totals sums the tenant snapshot's services.
func (t TenantSnapshot) Totals() ServiceSnapshot {
	var sum ServiceSnapshot
	sum.Name = t.Name
	for _, s := range t.Services {
		sum.CPUEnergyJ += s.CPUEnergyJ
		sum.ChipEnergyJ += s.ChipEnergyJ
		sum.DeviceEnergyJ += s.DeviceEnergyJ
		sum.CPUSeconds += s.CPUSeconds
		sum.Requests += s.Requests
	}
	return sum
}
