package faults

import (
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// EnvVar is the environment knob holding a fault schedule; when set at
// Launch time every backend executor is wrapped in an injector built from
// it (see core.NewFaultyExecutor).
const EnvVar = "QFW_FAULTS"

// Schedule describes a deterministic failure pattern. Exactly one of the
// two selection mechanisms applies: Nth > 0 fails every Nth call
// regardless of key; otherwise each distinct call key is marked faulty
// with probability Rate by a seeded hash, so the same keys fail on every
// run with the same seed, independent of call order.
type Schedule struct {
	// Rate is the fraction of call keys marked faulty (0..1).
	Rate float64
	// Times bounds the injected failures per marked key before it
	// succeeds — the transient-then-recover pattern (default 1; -1 fails
	// the key forever).
	Times int
	// Mode is the failure shape: "error" (a transient error return,
	// default), "panic" (the executor panics), or "hang" (the call blocks
	// until the injector is closed, exercising deadlines).
	Mode string
	// Nth, when positive, fails every Nth call counted across all keys.
	Nth int64
	// Seed drives the key-marking hash (default 1).
	Seed int64
}

func (s Schedule) withDefaults() Schedule {
	if s.Times == 0 {
		s.Times = 1
	}
	if s.Mode == "" {
		s.Mode = "error"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// String renders the schedule in ParseSchedule's format.
func (s Schedule) String() string {
	s = s.withDefaults()
	parts := []string{}
	if s.Nth > 0 {
		parts = append(parts, fmt.Sprintf("nth=%d", s.Nth))
	} else {
		parts = append(parts, fmt.Sprintf("rate=%g", s.Rate))
	}
	parts = append(parts, fmt.Sprintf("times=%d", s.Times), "mode="+s.Mode, fmt.Sprintf("seed=%d", s.Seed))
	return strings.Join(parts, ",")
}

// ParseSchedule decodes a comma-separated schedule spec, e.g.
// "rate=0.2,times=1,mode=error,seed=7" or "nth=3,mode=panic".
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Schedule{}, fmt.Errorf("faults: bad schedule field %q (want key=value)", field)
		}
		var err error
		switch key {
		case "rate":
			s.Rate, err = strconv.ParseFloat(val, 64)
			if err == nil && !(s.Rate >= 0 && s.Rate <= 1) {
				err = fmt.Errorf("rate %g out of [0,1]", s.Rate)
			}
		case "times":
			s.Times, err = strconv.Atoi(val)
		case "mode":
			switch val {
			case "error", "panic", "hang":
				s.Mode = val
			default:
				err = fmt.Errorf("unknown mode %q", val)
			}
		case "nth":
			s.Nth, err = strconv.ParseInt(val, 10, 64)
			if err == nil && s.Nth < 0 {
				err = fmt.Errorf("nth %d is negative", s.Nth)
			}
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return Schedule{}, fmt.Errorf("faults: bad schedule field %q: %v", field, err)
		}
	}
	if s.Rate == 0 && s.Nth == 0 {
		return Schedule{}, fmt.Errorf("faults: schedule %q selects nothing (set rate= or nth=)", spec)
	}
	return s.withDefaults(), nil
}

// FromEnv reads the QFW_FAULTS schedule; nil when unset. A malformed
// value is reported on stderr and ignored rather than silently arming a
// wrong schedule. Each call reads the environment afresh, but a value is
// reported only the first time: one start reads it at several call sites.
func FromEnv() *Schedule {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil
	}
	s, err := ParseSchedule(spec)
	if err != nil {
		if _, seen := reported.LoadOrStore(spec, true); !seen {
			fmt.Fprintf(os.Stderr, "faults: ignoring %s=%q: %v\n", EnvVar, spec, err)
		}
		return nil
	}
	return &s
}

// reported holds the malformed QFW_FAULTS values FromEnv has reported.
var reported sync.Map

// Injector applies a Schedule to keyed call sites. Marking is a pure
// function of (key, seed), so which elements fail is independent of
// worker interleaving — the property that lets tests assert bit-identical
// recovery against a clean run.
type Injector struct {
	sched    Schedule
	calls    atomic.Int64
	injected atomic.Int64

	mu   sync.Mutex
	seen map[string]int

	stop     chan struct{}
	stopOnce sync.Once
}

// NewInjector builds an injector for the schedule.
func NewInjector(s Schedule) *Injector {
	return &Injector{sched: s.withDefaults(), seen: make(map[string]int), stop: make(chan struct{})}
}

// Schedule returns the armed schedule.
func (inj *Injector) Schedule() Schedule { return inj.sched }

// Calls reports how many Before probes ran; Injected how many faulted.
func (inj *Injector) Calls() int64    { return inj.calls.Load() }
func (inj *Injector) Injected() int64 { return inj.injected.Load() }

// Marked reports whether a key is on the failure schedule (before Times
// accounting). Rate-based marking hashes key and seed into a uniform
// variate, so it is stable across runs and call orders.
func (inj *Injector) Marked(key string) bool {
	if inj.sched.Nth > 0 || inj.sched.Rate <= 0 {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%d", key, inj.sched.Seed)
	u := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return u < inj.sched.Rate
}

// Before is the injection point: call it with a stable key before the
// real operation. When the schedule selects this call it consumes one of
// the key's Times failures and applies the mode — returning a transient
// error, panicking, or blocking until Close. Otherwise it returns nil.
func (inj *Injector) Before(key string) error {
	n := inj.calls.Add(1)
	fault := false
	if inj.sched.Nth > 0 {
		fault = n%inj.sched.Nth == 0
	} else if inj.Marked(key) {
		inj.mu.Lock()
		if inj.sched.Times < 0 || inj.seen[key] < inj.sched.Times {
			inj.seen[key]++
			fault = true
		}
		inj.mu.Unlock()
	}
	if !fault {
		return nil
	}
	inj.injected.Add(1)
	switch inj.sched.Mode {
	case "panic":
		panic(fmt.Sprintf("faults: injected panic (key %s)", key))
	case "hang":
		<-inj.stop
		return Transient(fmt.Errorf("injected hang released (key %s)", key))
	default:
		return Transient(fmt.Errorf("injected fault (key %s, call %d)", key, n))
	}
}

// Close releases hung calls; idempotent.
func (inj *Injector) Close() {
	inj.stopOnce.Do(func() { close(inj.stop) })
}
