package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nodevar/internal/obs"
)

// proc is one running nodevard process.
type proc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// spawn starts nodevard with args on an ephemeral loopback port and
// returns once it has printed its listening address.
func spawn(bin string, args ...string) (*proc, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-access-log=false"}, args...)
	cmd := exec.Command(bin, args...)
	// A benchmark killed from outside must not leave nodevard running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting nodevard: %w", err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "nodevard listening on "); ok {
				addr <- a
			}
		}
		_ = cmd.Wait() // exit status 130 after SIGTERM is the normal drain
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-p.done:
		return nil, errors.New("nodevard exited before listening")
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, errors.New("nodevard did not report a listening address within 20s")
	}
}

// stop drains the process with SIGTERM and waits for it to exit,
// killing it if the drain takes too long.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// waitStatus polls url until it answers 200.
func waitStatus(url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 20s", url)
		}
		time.Sleep(time.Millisecond)
	}
}

// procCPU is the process's CPU time: the sum of its threads' run time
// from /proc/<pid>/task/*/schedstat (nanoseconds), falling back to the
// 10 ms-resolution utime+stime of /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err == nil && len(tasks) > 0 {
		var total time.Duration
		for _, t := range tasks {
			b, err := os.ReadFile(t)
			if err != nil {
				continue // the thread exited
			}
			f := strings.Fields(string(b))
			if len(f) == 0 {
				continue
			}
			ns, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", t, err)
			}
			total += time.Duration(ns)
		}
		if total > 0 {
			return total, nil
		}
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * (time.Second / clockTicks), nil
}

// clockTicks is USER_HZ, 100 on every Linux platform Go supports.
const clockTicks = 100

// peakRSSMB is the process's VmHWM in MB (2^20 bytes).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client is one closed-loop client with its own single connection.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// newClients returns n clients and a function closing them all.
func newClients(n int) ([]*client, func()) {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient()
	}
	return cs, func() {
		for _, c := range cs {
			c.close()
		}
	}
}

// exchange is one HTTP request/response, timed from send to last byte.
type exchange struct {
	status int
	header http.Header
	body   []byte
	lat    time.Duration
}

func (c *client) do(method, url string, body []byte) (exchange, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return exchange{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return exchange{}, err
	}
	b, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return exchange{}, err
	}
	return exchange{status: resp.StatusCode, header: resp.Header, body: b, lat: lat}, nil
}

// counters fetches nodevard's /debug/metrics counter snapshot.
func counters(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /debug/metrics: %w", err)
	}
	return snap.Counters, nil
}

// promCounters fetches a Prometheus /metrics page (the only export a
// worker has) as name → value for unlabelled samples.
func promCounters(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	out := map[string]int64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if len(s.Labels) == 0 {
				out[s.Name] = int64(s.Value)
			}
		}
	}
	return out, nil
}

// delta returns after[k]-before[k] for every key of after.
func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// serverEvent is one complete span of a /v1/trace/{id} Chrome trace.
type serverEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// fetchTrace returns the complete events nodevard recorded for one
// request.
func fetchTrace(base, id string) ([]serverEvent, error) {
	resp, err := http.Get(base + "/v1/trace/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/trace/%s: status %d", id, resp.StatusCode)
	}
	var tr struct {
		TraceEvents []serverEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return nil, fmt.Errorf("decoding trace %s: %w", id, err)
	}
	out := tr.TraceEvents[:0]
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			out = append(out, e)
		}
	}
	return out, nil
}

// eventDur returns the duration in ms of the first event named name.
func eventDur(evs []serverEvent, name string) (float64, bool) {
	for _, e := range evs {
		if e.Name == name {
			return e.Dur / 1e3, true
		}
	}
	return 0, false
}

// importTrace adds a server trace under the client span that carried
// the request, centring the server's root span in the client's
// interval (the two clocks are not shared). Each event's layer comes
// from its category through layerOf.
func importTrace(rec *recorder, parent, op int, evs []serverEvent, layerOf func(serverEvent) string) {
	if rec == nil || len(evs) == 0 || parent == 0 {
		return
	}
	cs, ce := rec.bounds(parent)
	root := evs[0]
	for _, e := range evs {
		if e.Dur > root.Dur {
			root = e
		}
	}
	rootDur := time.Duration(root.Dur * 1e3)
	shift := cs + (ce-cs-rootDur)/2 - time.Duration(root.Ts*1e3)
	// Nest each event under the smallest earlier event containing it.
	ordered := append([]serverEvent(nil), evs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		return a.Ts < b.Ts || (a.Ts == b.Ts && a.Dur > b.Dur) // parents before children
	})
	ids := make([]int, len(ordered))
	for i, e := range ordered {
		p := parent
		best := -1.0
		for j := 0; j < i; j++ {
			o := ordered[j]
			if o.Ts <= e.Ts && o.Ts+o.Dur >= e.Ts+e.Dur && (best < 0 || o.Dur < best) {
				p, best = ids[j], o.Dur
			}
		}
		start := shift + time.Duration(e.Ts*1e3)
		ids[i] = rec.add(p, op, layerOf(e), e.Name, start, start+time.Duration(e.Dur*1e3))
	}
}
