package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Label is one constant name=value pair attached to a metric at
// registration time (e.g. {"index", "interval"}).
type Label struct{ Key, Value string }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindSummary
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindSummary:
		return "summary"
	}
	return "untyped"
}

// summaryQuantiles are the φ lines a LogHistogram exports.
var summaryQuantiles = []float64{0.5, 0.99, 0.999}

// series is one registered metric instance: a family member with a
// concrete label set.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	gf     func() float64
	lh     *LogHistogram
	unit   float64 // divides lh values at export (e.g. 1e9 ns→s)
}

// family groups all series sharing a metric name; HELP/TYPE are emitted
// once per family.
type family struct {
	name, help string
	kind       metricKind
	series     []*series
}

// Registry is a set of named metrics with Prometheus text exposition.
// Registration is mutex-guarded; the registered metrics themselves are
// lock-free. The zero value is not usable — call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order
	byName   map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a series, creating its family on first use. It panics on
// kind mismatches within a family or duplicate (name, labels) series —
// both are programming errors that would silently corrupt the export.
func (r *Registry) register(name, help string, kind metricKind, s *series) {
	if name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	key := labelKey(s.labels)
	for _, prev := range f.series {
		if labelKey(prev.labels) == key {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, key))
		}
	}
	f.series = append(f.series, s)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{labels: sortLabels(labels), c: c})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{labels: sortLabels(labels), g: g})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed at export time.
// f must be safe to call concurrently with everything else (read only
// from atomics).
func (r *Registry) NewGaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, &series{labels: sortLabels(labels), gf: f})
}

// NewLogHistogram registers a LogHistogram exported as a Prometheus
// summary: quantile lines for φ ∈ {0.5, 0.99, 0.999} plus _sum and
// _count. Observed values are divided by unit at export time, so a
// histogram fed nanoseconds exposes seconds with unit 1e9; pass 1 for
// plain counts such as I/Os. Dividing by an exact power of ten gives the
// correctly rounded quotient, which prints with no noise digits
// (1802239 ns → 0.001802239), where multiplying by the inexact 1e-9
// would not.
func (r *Registry) NewLogHistogram(name, help string, unit float64, labels ...Label) *LogHistogram {
	if unit == 0 {
		unit = 1
	}
	lh := NewLogHistogram()
	r.register(name, help, kindSummary, &series{labels: sortLabels(labels), lh: lh, unit: unit})
	return lh
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE per family, then one
// line per series — summaries expand to one line per quantile plus _sum
// and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Copy each family under the lock: a series registered during the
	// scrape (a lazily added phase) appends to its family's slice, and
	// the copied slice headers never see that append.
	r.mu.Lock()
	fams := make([]family, len(r.families))
	for i, f := range r.families {
		fams[i] = *f
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" { // HELP is optional in the 0.0.4 format
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, s.labels, "", float64(s.c.Value()))
			case kindGauge:
				writeSample(&b, f.name, s.labels, "", float64(s.g.Value()))
			case kindGaugeFunc:
				writeSample(&b, f.name, s.labels, "", s.gf())
			case kindSummary:
				for _, q := range summaryQuantiles {
					ql := Label{Key: "quantile", Value: formatFloat(q)}
					writeSample(&b, f.name, append(s.labels[:len(s.labels):len(s.labels)], ql), "", float64(s.lh.Quantile(q))/s.unit)
				}
				writeSample(&b, f.name+"_sum", s.labels, "", float64(s.lh.Sum())/s.unit)
				writeSample(&b, f.name+"_count", s.labels, "", float64(s.lh.Count()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name string, labels []Label, suffix string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation, with integral values bare.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The 0.0.4 text format escapes backslash, double-quote, and newline in
// label values, and only backslash and newline in HELP text. The
// replacers are package-level so a scrape does not reallocate them per
// sample line.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	return labelEscaper.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	return helpEscaper.Replace(s)
}

func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}
