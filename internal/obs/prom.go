package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition format 0.0.4, written without any external
// dependency. Metric names are the registry's dotted names with every
// character outside [a-zA-Z0-9_:] replaced by '_' (so
// "server.cache.hits" scrapes as "server_cache_hits"); label values are
// escaped per the format spec (backslash, double quote, newline).

// sanitizeMetricName maps a registry name onto the Prometheus metric
// name grammar.
func sanitizeMetricName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// escapeLabelValue escapes a label value per the text format: backslash,
// double-quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 4)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// formatPromValue renders a sample value the way Prometheus expects,
// including the +Inf/-Inf/NaN spellings.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders {l1="v1",l2="v2"}; both slices must be equal
// length. extra, when non-empty, appends one more pair (the histogram
// "le" label).
func promLabels(labels, values []string, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// promFamily is one exposition family being assembled: a TYPE line plus
// its sample lines.
type promFamily struct {
	typ   string
	lines []string
}

// WritePrometheus writes every metric in the registry in Prometheus text
// exposition format 0.0.4. Output is deterministic: families sort by
// exposition name, labelled children by label key, histogram buckets
// ascend with +Inf last. Scalar counters and float counters expose as
// counter, gauges as gauge, histograms as the _bucket/_sum/_count triple
// with cumulative le buckets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := map[string]*promFamily{}
	family := func(name, typ string) (*promFamily, error) {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{typ: typ}
			fams[name] = f
			return f, nil
		}
		if f.typ != typ {
			return nil, fmt.Errorf("obs: exposition name %s used as both %s and %s", name, f.typ, typ)
		}
		return f, nil
	}
	scalar := func(name, typ string, labels, values []string, v float64) error {
		pn := sanitizeMetricName(name)
		f, err := family(pn, typ)
		if err != nil {
			return err
		}
		f.lines = append(f.lines, pn+promLabels(labels, values, "", "")+" "+formatPromValue(v))
		return nil
	}
	histogram := func(name string, labels, values []string, s HistogramSnapshot) error {
		pn := sanitizeMetricName(name)
		f, err := family(pn, "histogram")
		if err != nil {
			return err
		}
		var cum int64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			f.lines = append(f.lines,
				pn+"_bucket"+promLabels(labels, values, "le", formatPromValue(b))+" "+strconv.FormatInt(cum, 10))
		}
		f.lines = append(f.lines,
			pn+"_bucket"+promLabels(labels, values, "le", "+Inf")+" "+strconv.FormatInt(s.Count, 10),
			pn+"_sum"+promLabels(labels, values, "", "")+" "+formatPromValue(s.Sum),
			pn+"_count"+promLabels(labels, values, "", "")+" "+strconv.FormatInt(s.Count, 10))
		return nil
	}

	// Snapshot the registry maps under the lock, then walk each kind in
	// sorted-name order so lines land in families deterministically
	// (sorted children, ascending buckets) without a lexical line sort.
	r.mu.Lock()
	counters := sortedEntries(r.counters)
	gauges := sortedEntries(r.gauges)
	floats := sortedEntries(r.floats)
	hists := sortedEntries(r.hists)
	counterVecs := sortedEntries(r.counterVecs)
	gaugeVecs := sortedEntries(r.gaugeVecs)
	histVecs := sortedEntries(r.histVecs)
	r.mu.Unlock()

	for _, e := range counters {
		if err := scalar(e.name, "counter", nil, nil, float64(e.metric.Value())); err != nil {
			return err
		}
	}
	for _, e := range floats {
		if err := scalar(e.name, "counter", nil, nil, e.metric.Value()); err != nil {
			return err
		}
	}
	for _, e := range gauges {
		if err := scalar(e.name, "gauge", nil, nil, e.metric.Value()); err != nil {
			return err
		}
	}
	for _, e := range hists {
		if err := histogram(e.name, nil, nil, e.metric.snapshot()); err != nil {
			return err
		}
	}
	for _, e := range counterVecs {
		for _, c := range e.metric.core.snapshotChildren() {
			if err := scalar(e.name, "counter", e.metric.core.labels, c.values, float64(c.metric.Value())); err != nil {
				return err
			}
		}
	}
	for _, e := range gaugeVecs {
		for _, c := range e.metric.core.snapshotChildren() {
			if err := scalar(e.name, "gauge", e.metric.core.labels, c.values, c.metric.Value()); err != nil {
				return err
			}
		}
	}
	for _, e := range histVecs {
		for _, c := range e.metric.core.snapshotChildren() {
			if err := histogram(e.name, e.metric.core.labels, c.values, c.metric.snapshot()); err != nil {
				return err
			}
		}
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(bw, "# TYPE %s %s\n", n, f.typ)
		for _, line := range f.lines {
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// regEntry pairs one registry name with its metric for deterministic
// iteration.
type regEntry[M any] struct {
	name   string
	metric M
}

// sortedEntries snapshots a registry map into name-sorted entries.
// Caller holds the registry lock.
func sortedEntries[M any](m map[string]M) []regEntry[M] {
	out := make([]regEntry[M], 0, len(m))
	for n, v := range m {
		out = append(out, regEntry[M]{name: n, metric: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// PromContentType is the Content-Type of text exposition format 0.0.4.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromHandler serves the default registry in Prometheus text format,
// refreshing the runtime gauges (goroutines, heap, GC) on every scrape
// so they are always current without a background sampler.
func PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		SampleRuntime()
		w.Header().Set("Content-Type", PromContentType)
		if err := Default().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// HandleDebug mounts the shared diagnostics routes on mux: Prometheus
// text at /metrics, the JSON registry snapshot at /debug/metrics (both
// refresh the runtime gauges first), and net/http/pprof under
// /debug/pprof/.
func HandleDebug(mux *http.ServeMux) {
	mux.Handle("GET /metrics", PromHandler())
	mux.HandleFunc("GET /debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		SampleRuntime()
		w.Header().Set("Content-Type", "application/json")
		Default().Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
