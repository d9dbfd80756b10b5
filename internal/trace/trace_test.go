package trace

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRecordAndEvents(t *testing.T) {
	r := NewRecorder()
	t0 := r.Epoch()
	r.Record("b", "w1", t0.Add(10*time.Millisecond), t0.Add(20*time.Millisecond), nil)
	r.Record("a", "w0", t0, t0.Add(5*time.Millisecond), map[string]string{"k": "v"})
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("events %d", len(ev))
	}
	if ev[0].Name != "a" {
		t.Fatalf("not sorted by start: %v", ev)
	}
	if ev[0].Duration() != 5*time.Millisecond {
		t.Fatalf("duration %v", ev[0].Duration())
	}
	if r.Len() != 2 {
		t.Fatalf("len %d", r.Len())
	}
}

func TestSpan(t *testing.T) {
	r := NewRecorder()
	done := r.Span("op", "w")
	time.Sleep(2 * time.Millisecond)
	done()
	ev := r.Events()
	if len(ev) != 1 || ev[0].Duration() <= 0 {
		t.Fatalf("span not recorded: %v", ev)
	}
}

func TestMaxConcurrency(t *testing.T) {
	r := NewRecorder()
	t0 := r.Epoch()
	// Three overlapping sub-qaoa spans, one disjoint.
	r.Record("subqaoa-0", "w0", t0, t0.Add(10*time.Millisecond), nil)
	r.Record("subqaoa-1", "w1", t0.Add(2*time.Millisecond), t0.Add(12*time.Millisecond), nil)
	r.Record("subqaoa-2", "w2", t0.Add(4*time.Millisecond), t0.Add(14*time.Millisecond), nil)
	r.Record("subqaoa-3", "w3", t0.Add(20*time.Millisecond), t0.Add(30*time.Millisecond), nil)
	r.Record("other", "w4", t0, t0.Add(50*time.Millisecond), nil)
	if got := r.MaxConcurrency("subqaoa"); got != 3 {
		t.Fatalf("max concurrency %d, want 3", got)
	}
	if got := r.MaxConcurrency("other"); got != 1 {
		t.Fatalf("other concurrency %d", got)
	}
}

func TestRingBoundAndDrops(t *testing.T) {
	r := NewRecorderCap(8)
	t0 := r.Epoch()
	for i := 0; i < 100; i++ {
		s := t0.Add(time.Duration(i) * time.Millisecond)
		r.Record(fmt.Sprintf("op-%d", i), "w", s, s.Add(time.Millisecond), nil)
	}
	if r.Len() != 8 {
		t.Fatalf("ring retained %d events, want 8", r.Len())
	}
	st := r.Stats()
	if st.Capacity != 8 || st.Recorded != 100 || st.Dropped != 92 || st.Retained != 8 {
		t.Fatalf("stats %+v", st)
	}
	if st.Recorded != st.Dropped+int64(st.Retained) {
		t.Fatalf("accounting broken: %+v", st)
	}
	// The survivors are the newest spans, and Events still sorts them by
	// start even though the ring storage has wrapped out of order.
	ev := r.Events()
	if len(ev) != 8 || ev[0].Name != "op-92" || ev[7].Name != "op-99" {
		t.Fatalf("retained window wrong: %v ... %v", ev[0].Name, ev[len(ev)-1].Name)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Start.Before(ev[i-1].Start) {
			t.Fatalf("events out of start order at %d", i)
		}
	}
}

// TestRecorderSoakMemoryFlat drives 100k spans through a small ring and
// checks both the accounting (everything counted, only cap retained) and
// that heap growth stays bounded by the ring, not the traffic.
func TestRecorderSoakMemoryFlat(t *testing.T) {
	const (
		cap  = 1024
		soak = 100000
	)
	r := NewRecorderCap(cap)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < soak; i++ {
		r.Record("soak", "w", start, start.Add(time.Microsecond), nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	st := r.Stats()
	if st.Recorded != soak || st.Retained != cap || st.Dropped != soak-cap {
		t.Fatalf("soak accounting %+v", st)
	}
	if got := len(r.Events()); got != cap {
		t.Fatalf("events %d, want %d", got, cap)
	}
	// The ring itself is ~100KB; anything near the traffic volume means
	// events leaked past the bound.
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 4<<20 {
		t.Fatalf("heap grew %d bytes over a %d-span soak (ring cap %d)", growth, soak, cap)
	}
}

func TestTimelineFiltersInstantaneousEvents(t *testing.T) {
	r := NewRecorder()
	t0 := r.Epoch()
	r.Record("span", "worker-a", t0, t0.Add(10*time.Millisecond), nil)
	r.Record("instant", "worker-b", t0.Add(5*time.Millisecond), t0.Add(5*time.Millisecond), nil)
	out := r.Timeline(40)
	if !strings.Contains(out, "worker-a") {
		t.Fatalf("timeline lost the real span:\n%s", out)
	}
	if strings.Contains(out, "worker-b") {
		t.Fatalf("zero-duration event drew a timeline row:\n%s", out)
	}

	only := NewRecorder()
	only.Record("instant", "w", t0, t0, nil)
	if got := only.Timeline(40); got != "(no events)\n" {
		t.Fatalf("all-instantaneous recorder rendered bars:\n%s", got)
	}
}

func TestTimelineRendering(t *testing.T) {
	r := NewRecorder()
	t0 := r.Epoch()
	r.Record("iter", "nwqsim-0", t0, t0.Add(10*time.Millisecond), nil)
	r.Record("iter", "ionq-0", t0.Add(5*time.Millisecond), t0.Add(40*time.Millisecond), nil)
	out := r.Timeline(40)
	if !strings.Contains(out, "nwqsim-0") || !strings.Contains(out, "ionq-0") {
		t.Fatalf("timeline missing workers:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("timeline has no bars:\n%s", out)
	}
	if NewRecorder().Timeline(40) != "(no events)\n" {
		t.Fatal("empty recorder rendering wrong")
	}
}
