//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"testing"
	"time"

	"qfw/internal/core"
	"qfw/internal/defw"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{{9, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {20000, 99}} {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// fingerprint is the byte form of everything generate derives from the seed.
func fingerprint(t *testing.T, w *workload, seed int64) string {
	t.Helper()
	in, err := w.generate(seed, 24)
	if err != nil {
		t.Fatal(err)
	}
	var qasm []string
	for _, c := range in.Classes {
		qasm = append(qasm, c.spec.QASM)
	}
	b, err := json.Marshal(struct {
		In   *inputs
		QASM []string
	}{in, qasm})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for i := range allWorkloads {
		w := &allWorkloads[i]
		a, b, c := fingerprint(t, w, 7), fingerprint(t, w, 7), fingerprint(t, w, 8)
		if a != b {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if a == c {
			t.Errorf("%s: different seeds generated the same inputs", w.name)
		}
	}
}

func TestHotSetRepeatsAndColdDoesNot(t *testing.T) {
	for _, name := range []string{"serve_hot", "serve_cold"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.generate(1, 100)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		for _, op := range in.Ops {
			seen[op.Seeds[0]] = true
		}
		want := 100
		if w.hotSet > 0 {
			want = w.hotSet
		}
		if len(seen) != want {
			t.Errorf("%s: %d distinct request seeds over 100 ops, want %d", name, len(seen), want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func checkAgainstSpec(t *testing.T, kind string, spec []metricSpec, emitted map[string]metric) {
	t.Helper()
	want := map[string]string{}
	for _, ms := range spec {
		if !nameRE.MatchString(ms.Name) || !unitRE.MatchString(ms.Unit) {
			t.Errorf("%s %q (unit %q) is not a valid name and unit", kind, ms.Name, ms.Unit)
		}
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("%s %q: better = %q", kind, ms.Name, ms.Better)
		}
		if _, dup := want[ms.Name]; dup {
			t.Errorf("%s %q is listed twice", kind, ms.Name)
		}
		want[ms.Name] = ms.Unit
	}
	for _, name := range names(emitted) {
		unit, ok := want[name]
		if !ok {
			t.Errorf("the runner emits %s %q, which BENCHMARK.json does not list", kind, name)
		} else if unit != emitted[name].Unit {
			t.Errorf("%s %q: emitted in %q, listed in %q", kind, name, emitted[name].Unit, unit)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("BENCHMARK.json lists %s %q, which the runner does not emit", kind, name)
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../" + benchFile)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSpec(t, "end-to-end metric", spec.EndToEnd, endToEnd(&timed{}, 0, 0))
	checkAgainstSpec(t, "per-layer metric", spec.PerLayer, layerMetrics(&traceData{tr: newTracer()}))
	for _, ms := range spec.EndToEnd {
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", ms.Name, ms.Bound)
		}
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the runner", i, w.Name, allWorkloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
		if n := allWorkloads[i].opCount(10); n < minOps {
			t.Errorf("workload %q: %d ops in a 10 s run, want at least %d", w.Name, n, minOps)
		}
	}
}

// reports builds n untraced reports of one workload whose metrics all read v.
func reports(spec *benchSpec, workload string, spread float64, vals ...float64) []report {
	var out []report
	for _, v := range vals {
		rep := report{Workload: workload, Metrics: map[string]metric{}, Extra: map[string]metric{
			"segment_spread": {spread, "ratio"}, "fail_ratio": {0, "ratio"},
		}}
		for _, ms := range spec.EndToEnd {
			rep.Metrics[ms.Name] = metric{v, ms.Unit}
		}
		out = append(out, rep)
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.07},
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	verdicts := func(old, cur []report) map[string]string {
		out := map[string]string{}
		for _, r := range compareReports(spec, map[string][]report{"w": old}, map[string][]report{"w": cur}) {
			out[r.Metric] = r.Verdict
		}
		return out
	}

	// Every metric 9 % higher: a gain for the rate (higher is better), within
	// the bound for the latency and set-up (lower is better).
	v := verdicts(reports(spec, "w", 0.01, 100), reports(spec, "w", 0.01, 109))
	if v["ops_per_s"] != verdictOK || v["latency_p50_ms"] != verdictOK || v["setup_s"] != verdictOK || v["fail_ratio"] != verdictOK {
		t.Errorf("+9%%: %v", v)
	}
	// 12 % higher breaks the latency bound only.
	v = verdicts(reports(spec, "w", 0.01, 100), reports(spec, "w", 0.01, 112))
	if v["ops_per_s"] != verdictOK || v["latency_p50_ms"] != verdictRegression || v["setup_s"] != verdictOK {
		t.Errorf("+12%%: %v", v)
	}
	// 8 % lower breaks the rate bound only.
	v = verdicts(reports(spec, "w", 0.01, 100), reports(spec, "w", 0.01, 92))
	if v["ops_per_s"] != verdictRegression || v["latency_p50_ms"] != verdictOK {
		t.Errorf("-8%%: %v", v)
	}
	// Within the bounds, but the runs report a 12 % segment spread: wider
	// than the rate and latency bounds, so those pairs are unresolved. The
	// set-up time is not derived from the op rate and stays resolved.
	v = verdicts(reports(spec, "w", 0.12, 100), reports(spec, "w", 0.12, 101))
	if v["ops_per_s"] != verdictUnresolved || v["latency_p50_ms"] != verdictUnresolved || v["setup_s"] != verdictOK {
		t.Errorf("wide segment spread: %v", v)
	}
	// With at least four runs a side the spread is taken across runs. Here it
	// is wide, but every new latency is below every old one: resolved.
	old := reports(spec, "w", 0.01, 100, 120, 140, 160)
	cur := reports(spec, "w", 0.01, 50, 60, 70, 80)
	v = verdicts(old, cur)
	if v["latency_p50_ms"] != verdictOK || v["ops_per_s"] != verdictRegression {
		t.Errorf("all new runs lower: %v", v)
	}
	// A higher fail_ratio is a regression whatever the metrics say.
	cur = reports(spec, "w", 0.01, 100)
	cur[0].Extra["fail_ratio"] = metric{0.01, "ratio"}
	if v = verdicts(reports(spec, "w", 0.01, 100), cur); v["fail_ratio"] != verdictRegression {
		t.Errorf("higher fail_ratio: %v", v)
	}
	// A workload missing on one side cannot pass.
	rows := compareReports(spec, map[string][]report{"w": reports(spec, "w", 0, 1)}, map[string][]report{})
	if len(rows) != 1 || rows[0].Verdict != verdictMissing {
		t.Errorf("missing workload: %+v", rows)
	}
}

func TestGroupMediansIgnoreASlowBurst(t *testing.T) {
	// Ten groups of ten ops, one second and 50 ms of CPU a side each — but
	// three groups hit outside interference and take twice as long.
	tm := timed{marks: []mark{{}}}
	var at time.Duration
	for g := 1; g <= groups; g++ {
		step, cpu := time.Second, 50.0
		if g >= 4 && g <= 6 {
			step, cpu = 2*time.Second, 100
		}
		at += step
		prev := tm.marks[g-1]
		tm.marks = append(tm.marks, mark{at: at, good: 10 * g, clientCPU: prev.clientCPU + cpu, serverCPU: prev.serverCPU + 2*cpu})
		for i := 0; i < 10; i++ {
			tm.latMS = append(tm.latMS, ms(step)/10)
		}
	}
	tm.wall = at
	m := endToEnd(&tm, 0, 0)
	if got := m["ops_per_s"].Value; got != 10 {
		t.Errorf("ops_per_s = %v, want the undisturbed 10", got)
	}
	if got := m["client_cpu_ms_per_op"].Value; got != 5 {
		t.Errorf("client_cpu_ms_per_op = %v, want the undisturbed 5", got)
	}
	if got := m["server_cpu_ms_per_op"].Value; got != 10 {
		t.Errorf("server_cpu_ms_per_op = %v, want the undisturbed 10", got)
	}
	if mean := ratio(100, tm.wall.Seconds()); mean >= 10 {
		t.Errorf("the whole-phase mean %v should show the burst", mean)
	}
	if spread := iqrShare(tm.groupRates()); spread <= 0 {
		t.Errorf("segment spread %v, want > 0", spread)
	}
}

func TestReferenceSpeedCancelsASlowMachine(t *testing.T) {
	// Ten groups of ten ops. From the fifth group on the machine runs 1.5×
	// slower, the calibrator sees it, and every time-derived metric still
	// reads what it read on the reference machine.
	cal := &calibrator{}
	tm := timed{start: time.Unix(1000, 0), marks: []mark{{}}}
	var at time.Duration
	for g := 1; g <= groups; g++ {
		slow := 1.0
		if g >= 5 {
			slow = 1.5
		}
		step := time.Duration(slow * float64(time.Second))
		for k := time.Duration(0); k < step; k += calPeriod {
			cal.samples = append(cal.samples, calSample{tm.start.Add(at + k), slow * refNominalMS})
		}
		at += step
		prev := tm.marks[g-1]
		tm.marks = append(tm.marks, mark{at: at, good: 10 * g, clientCPU: prev.clientCPU + 50*slow, serverCPU: prev.serverCPU + 100*slow})
		for i := 0; i < 10; i++ {
			tm.latMS = append(tm.latMS, ms(step)/10)
			tm.latGroup = append(tm.latGroup, g-1)
		}
	}
	raw := endToEnd(&tm, 0, 0)
	if got := raw["latency_p90_ms"].Value; got != 150 {
		t.Errorf("uncalibrated latency_p90_ms = %v, want the clock's 150", got)
	}
	tm.calibrate(cal)
	m := endToEnd(&tm, 0, 0)
	for name, want := range map[string]float64{
		"ops_per_s": 10, "latency_p50_ms": 100, "latency_p90_ms": 100, "client_cpu_ms_per_op": 5, "server_cpu_ms_per_op": 10,
	} {
		if got := m[name].Value; got < want*0.999999 || got > want*1.000001 {
			t.Errorf("%s = %v at the reference speed, want %v", name, got, want)
		}
	}
	// A stretch between two samples takes the nearer one.
	from := tm.start.Add(4*time.Second - calPeriod/4)
	if got := cal.speed(from, from.Add(time.Millisecond)); got != 1.5 {
		t.Errorf("speed of a stretch just before the slow-down = %v, want the nearer sample's 1.5", got)
	}
	if got := (&calibrator{}).speed(from, from.Add(time.Second)); got != 1 {
		t.Errorf("speed without samples = %v, want 1", got)
	}
}

func TestProxyCountsFramesAndBytes(t *testing.T) {
	srv := defw.NewServer()
	srv.Register("echo", defw.HandlerFunc(func(_ string, p []byte) ([]byte, error) { return p, nil }))
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	px, err := startProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := defw.Dial(px.addr())
	if err != nil {
		t.Fatal(err)
	}
	const calls = 5
	for i := 0; i < calls; i++ {
		out, err := cli.Call("echo", "m", []byte(`"hello"`))
		if err != nil || string(out) != `"hello"` {
			t.Fatalf("call through the proxy: %q, %v", out, err)
		}
	}
	w := px.snapshot()
	if w.rpcs != calls || w.frames != 2*calls {
		t.Errorf("proxy counted %d RPCs and %d frames for %d calls", w.rpcs, w.frames, calls)
	}
	if w.bytes < int64(2*calls*len(`"hello"`)) {
		t.Errorf("proxy counted %d bytes for %d echoed payloads", w.bytes, calls)
	}
	cli.Close()
	px.close() // returns only once every relay goroutine has exited
}

func TestScrapeParsesLabelledSamples(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "# TYPE qfw_qpm_tasks_total counter\n"+
			"qfw_qpm_tasks_total{backend=\"aer\"} 42\n"+
			"qfw_qpm_exec_ms_sum{backend=\"aer\"} 12.5\n"+
			"qfw_qpm_exec_ms_bucket{backend=\"aer\",le=\"+Inf\"} 7\n")
	}))
	defer ts.Close()
	m, err := scrape(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if m[qpmSample("qfw_qpm_tasks_total", "aer")] != 42 || m[qpmSample("qfw_qpm_exec_ms_sum", "aer")] != 12.5 {
		t.Errorf("scraped %v", m)
	}
}

func TestServerTimeOfABatchIsTheSharedCall(t *testing.T) {
	// Two elements of one executor call: 1 ms queue each, exec reported as
	// the 3 ms mean of a 6 ms call.
	var a, b core.Result
	a.Timings.QueueMS, a.Timings.ExecMS, a.Timings.TotalMS = 1, 3, 4
	b.Timings = a.Timings
	if got := serverMS([]*core.Result{&a, &b}); got != 7 {
		t.Errorf("serverMS = %v, want 7 (1 ms queue + 6 ms call)", got)
	}
}
