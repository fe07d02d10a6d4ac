package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"powercontainers/internal/sim"
)

// Schedule is the parsed, validated form of a fault-plan spec string. The
// text format exists so experiments and the pcbench command line can name a
// fault mix compactly:
//
//	meter:drop=0.1,spike=0.05,spikemag=8;counter:wrap=5e7,lostirq=0.01;socket:sendloss=0.01
//
// Clauses are ';'-separated, each "target:key=value,...". Targets are
// "meter", "counter" and "socket"; durations and times are plain
// nanosecond integers. ParseSchedule validates probabilities and times;
// String re-encodes canonically, and ParseSchedule(s.String()) round-trips
// to an equal schedule.
type Schedule struct {
	Meter   *MeterFaults
	Counter *CounterFaults
	Socket  *SocketFaults
}

// Plan derives the seeded injection plan for this schedule.
func (s *Schedule) Plan(seed uint64) *Plan {
	p := &Plan{Seed: seed}
	if s.Meter != nil {
		m := *s.Meter
		p.Meter = &m
	}
	if s.Counter != nil {
		c := *s.Counter
		p.Counter = &c
	}
	if s.Socket != nil {
		sk := *s.Socket
		p.Socket = &sk
	}
	return p
}

func parseProb(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("faults: %s: %v", key, err)
	}
	if math.IsNaN(f) || f < 0 || f > 1 {
		return 0, fmt.Errorf("faults: %s=%v outside [0,1]", key, f)
	}
	return f, nil
}

func parseNonNeg(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("faults: %s: %v", key, err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0, fmt.Errorf("faults: %s=%v must be finite and ≥ 0", key, f)
	}
	return f, nil
}

func parseTime(key, val string) (sim.Time, error) {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("faults: %s: %v", key, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("faults: %s=%d must be ≥ 0", key, n)
	}
	return sim.Time(n), nil
}

// splitParams tolerates an empty param list ("meter:" is a valid, inert
// clause — the canonical encoding of an all-zero config).
func splitParams(params string) []string {
	if params == "" {
		return nil
	}
	return strings.Split(params, ",")
}

func parseMeterClause(params string) (*MeterFaults, error) {
	m := &MeterFaults{}
	for _, kv := range splitParams(params) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("faults: meter param %q is not key=value", kv)
		}
		var err error
		switch key {
		case "drop":
			m.DropoutP, err = parseProb("drop", val)
		case "spike":
			m.SpikeP, err = parseProb("spike", val)
		case "spikemag":
			m.SpikeMag, err = parseNonNeg("spikemag", val)
		case "stuck":
			m.StuckP, err = parseProb("stuck", val)
		case "jitter":
			m.JitterP, err = parseProb("jitter", val)
		case "jittermax":
			m.JitterMax, err = parseTime("jittermax", val)
		case "death":
			m.DeathAt, err = parseTime("death", val)
		default:
			return nil, fmt.Errorf("faults: unknown meter param %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	if sum := m.DropoutP + m.SpikeP + m.StuckP; sum > 1 {
		return nil, fmt.Errorf("faults: drop+spike+stuck=%v exceeds 1", sum)
	}
	return m, nil
}

func parseCounterClause(params string) (*CounterFaults, error) {
	c := &CounterFaults{}
	for _, kv := range splitParams(params) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("faults: counter param %q is not key=value", kv)
		}
		var err error
		switch key {
		case "wrap":
			c.WrapEvery, err = parseNonNeg("wrap", val)
		case "lostirq":
			c.LostInterruptP, err = parseProb("lostirq", val)
		default:
			return nil, fmt.Errorf("faults: unknown counter param %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

func parseSocketClause(params string) (*SocketFaults, error) {
	s := &SocketFaults{}
	for _, kv := range splitParams(params) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("faults: socket param %q is not key=value", kv)
		}
		var err error
		switch key {
		case "injectloss":
			s.InjectTagLossP, err = parseProb("injectloss", val)
		case "sendloss":
			s.SendTagLossP, err = parseProb("sendloss", val)
		default:
			return nil, fmt.Errorf("faults: unknown socket param %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ParseSchedule parses and validates a fault-plan spec. An empty spec
// yields an empty (inject-nothing) schedule. Accepted schedules always
// satisfy: probabilities in [0,1] with drop+spike+stuck ≤ 1, times ≥ 0,
// and at most one clause per target.
func ParseSchedule(spec string) (*Schedule, error) {
	s := &Schedule{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		target, params, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not target:params", clause)
		}
		switch target {
		case "meter":
			if s.Meter != nil {
				return nil, fmt.Errorf("faults: duplicate meter clause")
			}
			m, err := parseMeterClause(params)
			if err != nil {
				return nil, err
			}
			s.Meter = m
		case "counter":
			if s.Counter != nil {
				return nil, fmt.Errorf("faults: duplicate counter clause")
			}
			c, err := parseCounterClause(params)
			if err != nil {
				return nil, err
			}
			s.Counter = c
		case "socket":
			if s.Socket != nil {
				return nil, fmt.Errorf("faults: duplicate socket clause")
			}
			sk, err := parseSocketClause(params)
			if err != nil {
				return nil, err
			}
			s.Socket = sk
		default:
			return nil, fmt.Errorf("faults: unknown target %q", target)
		}
	}
	return s, nil
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String re-encodes the schedule canonically: clause order meter, counter,
// socket; zero-valued params omitted. The canonical form parses back to an
// equal schedule.
func (s *Schedule) String() string {
	var clauses []string
	if m := s.Meter; m != nil {
		var ps []string
		if m.DropoutP > 0 {
			ps = append(ps, "drop="+fmtF(m.DropoutP))
		}
		if m.SpikeP > 0 {
			ps = append(ps, "spike="+fmtF(m.SpikeP))
		}
		if m.SpikeMag > 0 {
			ps = append(ps, "spikemag="+fmtF(m.SpikeMag))
		}
		if m.StuckP > 0 {
			ps = append(ps, "stuck="+fmtF(m.StuckP))
		}
		if m.JitterP > 0 {
			ps = append(ps, "jitter="+fmtF(m.JitterP))
		}
		if m.JitterMax > 0 {
			ps = append(ps, "jittermax="+strconv.FormatInt(int64(m.JitterMax), 10))
		}
		if m.DeathAt > 0 {
			ps = append(ps, "death="+strconv.FormatInt(int64(m.DeathAt), 10))
		}
		clauses = append(clauses, "meter:"+strings.Join(ps, ","))
	}
	if c := s.Counter; c != nil {
		var ps []string
		if c.WrapEvery > 0 {
			ps = append(ps, "wrap="+fmtF(c.WrapEvery))
		}
		if c.LostInterruptP > 0 {
			ps = append(ps, "lostirq="+fmtF(c.LostInterruptP))
		}
		clauses = append(clauses, "counter:"+strings.Join(ps, ","))
	}
	if sk := s.Socket; sk != nil {
		var ps []string
		if sk.InjectTagLossP > 0 {
			ps = append(ps, "injectloss="+fmtF(sk.InjectTagLossP))
		}
		if sk.SendTagLossP > 0 {
			ps = append(ps, "sendloss="+fmtF(sk.SendTagLossP))
		}
		clauses = append(clauses, "socket:"+strings.Join(ps, ","))
	}
	return strings.Join(clauses, ";")
}
