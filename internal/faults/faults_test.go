package faults

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTransientClassification(t *testing.T) {
	base := errors.New("socket reset")
	tr := Transient(base)
	if !IsTransient(tr) {
		t.Fatalf("wrapped error not transient: %v", tr)
	}
	if IsTransient(base) {
		t.Fatal("plain error classified transient")
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
	if got := Transient(tr); got != tr {
		t.Fatalf("double wrap: %v", got)
	}
	// The RPC layer flattens errors to strings; classification must survive.
	flat := fmt.Errorf("%s", tr.Error())
	if !IsTransient(flat) {
		t.Fatalf("flattened error lost classification: %v", flat)
	}
}

func TestPolicyRetriesTransient(t *testing.T) {
	var slept []time.Duration
	p := Policy{MaxAttempts: 4, Seed: 7, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	calls := 0
	err := p.Do(func(attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return Transient(fmt.Errorf("flake %d", calls))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times", len(slept))
	}
	for i, d := range slept {
		ceiling := time.Millisecond << uint(i)
		if d < 0 || d > ceiling {
			t.Fatalf("sleep %d = %s over ceiling %s", i, d, ceiling)
		}
	}
}

func TestPolicyDeterministicBackoff(t *testing.T) {
	run := func() []time.Duration {
		var slept []time.Duration
		p := Policy{MaxAttempts: 5, Seed: 3, Sleep: func(d time.Duration) { slept = append(slept, d) }}
		p.Do(func(int) error { return Transient(errors.New("always")) })
		return slept
	}
	a, b := run(), run()
	if len(a) != 4 {
		t.Fatalf("want 4 sleeps, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
	}
}

func TestDoStatsAccountsAttemptsAndBackoff(t *testing.T) {
	var slept time.Duration
	p := Policy{MaxAttempts: 4, Seed: 9, Sleep: func(d time.Duration) { slept += d }}
	calls := 0
	stats, err := p.DoStats(func(int) error {
		calls++
		if calls < 3 {
			return Transient(errors.New("flake"))
		}
		return nil
	})
	if err != nil || stats.Attempts != 3 {
		t.Fatalf("err=%v stats=%+v", err, stats)
	}
	// Backoff must equal exactly what was handed to Sleep, even stubbed.
	if stats.Backoff != slept {
		t.Fatalf("stats backoff %s != slept %s", stats.Backoff, slept)
	}

	// Success on the first try: one attempt, zero backoff.
	stats, err = p.DoStats(func(int) error { return nil })
	if err != nil || stats.Attempts != 1 || stats.Backoff != 0 {
		t.Fatalf("clean run stats=%+v err=%v", stats, err)
	}

	// Permanent failure: no retry, no backoff, error surfaced.
	perm := errors.New("bad circuit")
	stats, err = p.DoStats(func(int) error { return perm })
	if !errors.Is(err, perm) || stats.Attempts != 1 || stats.Backoff != 0 {
		t.Fatalf("permanent stats=%+v err=%v", stats, err)
	}
}

func TestPolicyPermanentFailsFast(t *testing.T) {
	calls := 0
	perm := errors.New("bad circuit")
	err := Policy{MaxAttempts: 5, Sleep: func(time.Duration) {}}.Do(func(int) error {
		calls++
		return perm
	})
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestPolicyExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Policy{MaxAttempts: 3, Sleep: func(time.Duration) {}}.Do(func(int) error {
		calls++
		return Transient(errors.New("always"))
	})
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if !IsTransient(err) {
		t.Fatalf("final error lost type: %v", err)
	}
}

type hinted struct{ after time.Duration }

func (h hinted) Error() string { return "throttled: " + ErrTransient.Error() }

func TestPolicyHonorsHint(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxAttempts: 2,
		Seed:        1,
		Hint: func(err error) (time.Duration, bool) {
			var h hinted
			if errors.As(err, &h) {
				return h.after, true
			}
			return 0, false
		},
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	p.Do(func(int) error { return hinted{after: 40 * time.Millisecond} })
	if len(slept) != 1 || slept[0] < 40*time.Millisecond {
		t.Fatalf("hint ignored: %v", slept)
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("rate=0.2,times=1,mode=error,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if s.Rate != 0.2 || s.Times != 1 || s.Mode != "error" || s.Seed != 7 {
		t.Fatalf("parsed %+v", s)
	}
	s, err = ParseSchedule("nth=3,mode=panic")
	if err != nil {
		t.Fatal(err)
	}
	if s.Nth != 3 || s.Mode != "panic" || s.Times != 1 || s.Seed != 1 {
		t.Fatalf("parsed %+v", s)
	}
	if round, err := ParseSchedule(s.String()); err != nil || round != s {
		t.Fatalf("round trip %+v vs %+v (%v)", round, s, err)
	}
	for _, bad := range []string{"rate=2", "mode=explode", "rate", "times=1", "frob=1", "nth=-1", "rate=NaN"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// FuzzParseSchedule feeds arbitrary text to the schedule grammar: whatever
// it accepts must select something (a positive Nth or a rate in (0, 1]), and
// its String form must parse back to the same String form.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"rate=0.2,times=1,mode=error,seed=7", "nth=3,mode=panic", "rate=1,times=-1,mode=hang",
		"nth=-1", "rate=NaN", "rate=-0,nth=2", "rate=5e-324", "times=0,seed=0,rate=1e-3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		if !(s.Nth > 0 || s.Rate > 0 && s.Rate <= 1) {
			t.Fatalf("%q parsed to %+v, which selects nothing", spec, s)
		}
		round, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose String %q does not parse: %v", spec, s, s.String(), err)
		}
		if round.String() != s.String() {
			t.Fatalf("%q: String %q parsed back to %q", spec, s.String(), round.String())
		}
	})
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "")
	if FromEnv() != nil {
		t.Fatal("unset env produced a schedule")
	}
	t.Setenv(EnvVar, "rate=0.5,seed=9")
	s := FromEnv()
	if s == nil || s.Rate != 0.5 || s.Seed != 9 {
		t.Fatalf("got %+v", s)
	}
	t.Setenv(EnvVar, "garbage")
	if FromEnv() != nil {
		t.Fatal("malformed env produced a schedule")
	}
}

// TestFromEnvReportsOnce: one start reads QFW_FAULTS at several call
// sites, and a malformed value is reported once, not once per read.
func TestFromEnvReportsOnce(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	t.Cleanup(func() { os.Stderr = stderr })
	const spec = "nth=-1,seed=53"
	reported.Delete(spec) // an earlier run of this test in the process reported it
	t.Setenv(EnvVar, spec)
	for i := 0; i < 3; i++ {
		if FromEnv() != nil {
			t.Fatal("malformed env produced a schedule")
		}
	}
	os.Stderr = stderr
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(out), "faults: ignoring"); n != 1 {
		t.Fatalf("three reads of one malformed value printed %d reports:\n%s", n, out)
	}
}

func TestInjectorMarkingDeterministic(t *testing.T) {
	a := NewInjector(Schedule{Rate: 0.3, Seed: 5})
	b := NewInjector(Schedule{Rate: 0.3, Seed: 5})
	marked := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("elem-%d", i)
		if a.Marked(key) != b.Marked(key) {
			t.Fatalf("marking differs for %s", key)
		}
		if a.Marked(key) {
			marked++
		}
	}
	if marked < 30 || marked > 90 {
		t.Fatalf("rate 0.3 marked %d/200", marked)
	}
	none := NewInjector(Schedule{Rate: 0, Nth: 1})
	all := NewInjector(Schedule{Rate: 1})
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		if none.Marked(key) {
			t.Fatal("rate 0 marked a key")
		}
		if !all.Marked(key) {
			t.Fatal("rate 1 missed a key")
		}
	}
}

func TestInjectorConsumesTimes(t *testing.T) {
	inj := NewInjector(Schedule{Rate: 1, Times: 2, Seed: 1})
	if err := inj.Before("x"); !IsTransient(err) {
		t.Fatalf("first call: %v", err)
	}
	if err := inj.Before("x"); !IsTransient(err) {
		t.Fatalf("second call: %v", err)
	}
	if err := inj.Before("x"); err != nil {
		t.Fatalf("exhausted key still fails: %v", err)
	}
	if inj.Injected() != 2 || inj.Calls() != 3 {
		t.Fatalf("injected=%d calls=%d", inj.Injected(), inj.Calls())
	}
	forever := NewInjector(Schedule{Rate: 1, Times: -1})
	for i := 0; i < 5; i++ {
		if err := forever.Before("y"); !IsTransient(err) {
			t.Fatalf("times=-1 recovered on call %d", i)
		}
	}
}

func TestInjectorNth(t *testing.T) {
	inj := NewInjector(Schedule{Nth: 3})
	var pattern []bool
	for i := 0; i < 9; i++ {
		pattern = append(pattern, inj.Before(fmt.Sprintf("k%d", i)) != nil)
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("nth=3 pattern %v", pattern)
		}
	}
}

func TestInjectorPanicMode(t *testing.T) {
	inj := NewInjector(Schedule{Rate: 1, Mode: "panic"})
	defer func() {
		p := recover()
		if p == nil || !strings.Contains(fmt.Sprint(p), "injected panic") {
			t.Fatalf("recover: %v", p)
		}
	}()
	inj.Before("boom")
	t.Fatal("no panic")
}

func TestInjectorHangMode(t *testing.T) {
	inj := NewInjector(Schedule{Rate: 1, Mode: "hang"})
	released := make(chan error, 1)
	go func() { released <- inj.Before("stall") }()
	select {
	case err := <-released:
		t.Fatalf("hang returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	inj.Close()
	inj.Close() // idempotent
	select {
	case err := <-released:
		if !IsTransient(err) {
			t.Fatalf("released hang: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not release the hang")
	}
}
