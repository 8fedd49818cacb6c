package dist

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nodevar/internal/rng"
)

// This file holds the seeded network-fault injector that
// TestFrontendUnderNetworkChaos puts in front of the worker fleet, and
// the injector's own tests.

// ErrInjectedRefusal is the transport error an injected connection
// refusal returns; callers see it wrapped in the usual *url.Error.
var ErrInjectedRefusal = errors.New("netfault: injected connection refusal")

// NetSchedule configures deterministic network faults injected at the
// http.RoundTripper layer: refused connections, added latency,
// truncated response bodies, and flapping hosts. It keeps the contract
// of the meter-fault faults.Schedule: the zero value injects nothing,
// and every random decision derives from Seed, so a sequential request
// sequence draws an identical fault sequence on every run. (Concurrent
// requests share the decision stream; which request lands on which
// decision then depends on arrival order, as with any shared fault
// source.)
type NetSchedule struct {
	// Seed drives every fault decision.
	Seed uint64

	// RefuseRate is the per-request probability of an injected
	// connection refusal: the request fails before reaching the
	// network, like a dial against a dead port.
	RefuseRate float64

	// LatencyRate is the per-request probability of injected latency;
	// LatencySec is its duration in seconds (default 0.05). The delay
	// respects the request context, so a timed-out caller is not held.
	LatencyRate float64
	LatencySec  float64

	// TruncateRate is the per-response probability that the body is cut
	// off partway: reads deliver up to TruncateBytes bytes (drawn
	// uniformly in [1, TruncateBytes], default cap 4096) and then fail
	// with an unexpected-EOF, like a peer dying mid-stream.
	TruncateRate  float64
	TruncateBytes int

	// FlapRate is the per-request probability that the target host
	// toggles between up and down. While down, every request to that
	// host is refused — a worker that keeps dropping off the network
	// and coming back.
	FlapRate float64
}

// Validate checks the schedule.
func (s NetSchedule) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"RefuseRate", s.RefuseRate},
		{"LatencyRate", s.LatencyRate},
		{"TruncateRate", s.TruncateRate},
		{"FlapRate", s.FlapRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("netfault: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	switch {
	case s.LatencySec < 0:
		return fmt.Errorf("netfault: LatencySec %v negative", s.LatencySec)
	case s.TruncateBytes < 0:
		return fmt.Errorf("netfault: TruncateBytes %d negative", s.TruncateBytes)
	}
	return nil
}

// IsZero reports whether the schedule injects nothing.
func (s NetSchedule) IsZero() bool {
	return s.RefuseRate == 0 && s.LatencyRate == 0 && s.TruncateRate == 0 && s.FlapRate == 0
}

func (s NetSchedule) withNetDefaults() NetSchedule {
	if s.LatencySec == 0 {
		s.LatencySec = 0.05
	}
	if s.TruncateBytes == 0 {
		s.TruncateBytes = 4096
	}
	return s
}

// String renders the non-zero entries in a fixed order.
func (s NetSchedule) String() string {
	if s.IsZero() {
		return fmt.Sprintf("seed=%d (no net faults)", s.Seed)
	}
	var b []byte
	b = fmt.Appendf(b, "seed=%d", s.Seed)
	add := func(name string, v float64) {
		if v != 0 {
			b = fmt.Appendf(b, " %s=%g", name, v)
		}
	}
	add("refuse", s.RefuseRate)
	add("latency", s.LatencyRate)
	add("latencysec", s.LatencySec)
	add("truncate", s.TruncateRate)
	if s.TruncateBytes != 0 {
		b = fmt.Appendf(b, " truncbytes=%d", s.TruncateBytes)
	}
	add("flap", s.FlapRate)
	return string(b)
}

// NetCounts is one injector's tally of what it actually did.
type NetCounts struct {
	Requests  int64
	Refused   int64
	Delayed   int64
	Truncated int64
	Flaps     int64
}

// NetInjector is an http.RoundTripper that applies a NetSchedule in
// front of a real transport. A zero schedule forwards every request
// untouched.
type NetInjector struct {
	sched NetSchedule
	next  http.RoundTripper

	mu     sync.Mutex
	r      *rng.Rand
	down   map[string]bool // per-host flap state
	counts NetCounts
}

// Wrap builds an injector applying s in front of next (defaulting to
// http.DefaultTransport). The schedule must validate.
func (s NetSchedule) Wrap(next http.RoundTripper) (*NetInjector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		next = http.DefaultTransport
	}
	s = s.withNetDefaults()
	return &NetInjector{
		sched: s,
		next:  next,
		r:     rng.New(s.Seed),
		down:  map[string]bool{},
	}, nil
}

// Counts snapshots what the injector has done so far.
func (n *NetInjector) Counts() NetCounts {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.counts
}

// decision is one request's drawn faults.
type decision struct {
	refuse   bool
	delay    time.Duration
	truncate int // bytes to deliver before cutting; 0 = no truncation
}

// draw makes every random decision for one request under the lock, in a
// fixed order per request so the decision sequence is a pure function
// of the seed and the request ordinal.
func (n *NetInjector) draw(host string) decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.counts.Requests++
	var d decision
	s := n.sched
	if s.FlapRate > 0 && n.r.Float64() < s.FlapRate {
		n.down[host] = !n.down[host]
		n.counts.Flaps++
	}
	if n.down[host] {
		n.counts.Refused++
		d.refuse = true
		return d
	}
	if s.RefuseRate > 0 && n.r.Float64() < s.RefuseRate {
		n.counts.Refused++
		d.refuse = true
		return d
	}
	if s.LatencyRate > 0 && n.r.Float64() < s.LatencyRate {
		d.delay = time.Duration(s.LatencySec * float64(time.Second))
		n.counts.Delayed++
	}
	if s.TruncateRate > 0 && n.r.Float64() < s.TruncateRate {
		d.truncate = 1 + int(n.r.Float64()*float64(s.TruncateBytes))
		n.counts.Truncated++
	}
	return d
}

// RoundTrip applies the drawn faults around the wrapped transport.
func (n *NetInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	d := n.draw(req.URL.Host)
	if d.refuse {
		return nil, fmt.Errorf("netfault: %s %s: %w", req.Method, req.URL, ErrInjectedRefusal)
	}
	if d.delay > 0 {
		t := time.NewTimer(d.delay)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		}
	}
	resp, err := n.next.RoundTrip(req)
	if err != nil || d.truncate == 0 {
		return resp, err
	}
	resp.Body = &truncatingBody{rc: resp.Body, remaining: d.truncate}
	return resp, nil
}

// truncatingBody delivers at most remaining bytes, then fails the way a
// connection severed mid-stream does.
type truncatingBody struct {
	rc        io.ReadCloser
	remaining int
}

func (t *truncatingBody) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > t.remaining {
		p = p[:t.remaining]
	}
	nr, err := t.rc.Read(p)
	t.remaining -= nr
	if err == nil && t.remaining <= 0 {
		// Report the delivered bytes now; the cut surfaces on the next read.
		return nr, nil
	}
	if errors.Is(err, io.EOF) {
		// The true body ended within the budget: pass the EOF through so
		// short responses are untouched.
		return nr, err
	}
	return nr, err
}

func (t *truncatingBody) Close() error { return t.rc.Close() }

func TestNetScheduleValidate(t *testing.T) {
	good := NetSchedule{Seed: 1, RefuseRate: 0.1, LatencyRate: 0.2, TruncateRate: 0.3, FlapRate: 0.05}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []NetSchedule{
		{RefuseRate: -0.1},
		{RefuseRate: 1.1},
		{LatencyRate: 2},
		{TruncateRate: -1},
		{FlapRate: 7},
		{LatencySec: -1},
		{TruncateBytes: -5},
	}
	for i, s := range bads {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad schedule %d validated: %+v", i, s)
		}
	}
	if !(NetSchedule{Seed: 9}).IsZero() {
		t.Fatal("zero-rate schedule not IsZero")
	}
	if (NetSchedule{RefuseRate: 0.1}).IsZero() {
		t.Fatal("non-zero schedule claims IsZero")
	}
}

func TestNetZeroScheduleIsPassThrough(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.WriteString(rw, "untouched body")
	}))
	defer srv.Close()

	inj, err := NetSchedule{Seed: 3}.Wrap(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: inj}
	for i := 0; i < 20; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "untouched body" {
			t.Fatalf("request %d: body %q, err %v", i, body, err)
		}
	}
	c := inj.Counts()
	if c.Refused+c.Delayed+c.Truncated+c.Flaps != 0 {
		t.Fatalf("zero schedule injected faults: %+v", c)
	}
}

func TestNetRefusalDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()

	run := func() []bool {
		inj, err := NetSchedule{Seed: 42, RefuseRate: 0.5}.Wrap(nil)
		if err != nil {
			t.Fatal(err)
		}
		client := &http.Client{Transport: inj}
		var outcome []bool
		for i := 0; i < 40; i++ {
			resp, err := client.Get(srv.URL)
			if err != nil {
				if !errors.Is(err, ErrInjectedRefusal) {
					t.Fatalf("request %d: unexpected error %v", i, err)
				}
				outcome = append(outcome, false)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcome = append(outcome, true)
		}
		return outcome
	}

	a, b := run(), run()
	refused := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: fault sequence differs between identical runs", i)
		}
		if !a[i] {
			refused++
		}
	}
	if refused == 0 || refused == len(a) {
		t.Fatalf("RefuseRate 0.5 refused %d/%d requests", refused, len(a))
	}
}

func TestNetInjectedLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()

	inj, err := NetSchedule{Seed: 7, LatencyRate: 1, LatencySec: 0.05}.Wrap(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: inj}
	start := time.Now()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("request took %v, want >= 50ms of injected latency", took)
	}
	if inj.Counts().Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", inj.Counts().Delayed)
	}
}

func TestNetTruncationBreaksLongBodies(t *testing.T) {
	payload := strings.Repeat("x", 64*1024)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.WriteString(rw, payload)
	}))
	defer srv.Close()

	inj, err := NetSchedule{Seed: 11, TruncateRate: 1, TruncateBytes: 1024}.Wrap(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: inj}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("read %d bytes of %d with no error; truncation never fired", len(body), len(payload))
	}
	if len(body) > 1024 {
		t.Fatalf("delivered %d bytes, budget was 1024", len(body))
	}
}

func TestNetTruncationLeavesShortBodiesAlone(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.WriteString(rw, "tiny")
	}))
	defer srv.Close()

	inj, err := NetSchedule{Seed: 11, TruncateRate: 1, TruncateBytes: 4096}.Wrap(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: inj}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != "tiny" {
		t.Fatalf("short body mangled: %q, %v", body, err)
	}
}

func TestNetFlappingHost(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()

	// FlapRate 1 toggles the host on every request: starting up, the
	// first request flips it down (refused), the second flips it back up
	// (served), and so on — a strict alternation.
	inj, err := NetSchedule{Seed: 5, FlapRate: 1}.Wrap(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: inj}
	for i := 0; i < 10; i++ {
		resp, err := client.Get(srv.URL)
		wantOK := i%2 == 1
		if wantOK {
			if err != nil {
				t.Fatalf("request %d: %v, want success", i, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		if err == nil {
			resp.Body.Close()
			t.Fatalf("request %d succeeded, want refusal (host down)", i)
		}
		if !errors.Is(err, ErrInjectedRefusal) {
			t.Fatalf("request %d: unexpected error %v", i, err)
		}
	}
	if c := inj.Counts(); c.Flaps != 10 || c.Refused != 5 {
		t.Fatalf("counts = %+v, want 10 flaps / 5 refusals", c)
	}
}
