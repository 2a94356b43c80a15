package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// This file renders gathered samples in the two exposition formats:
// Prometheus text (for scrapers) and JSON (for tools and for the gateway's
// /v1/metrics alias, so the read plane and the write plane expose one
// schema). Both renderings are deterministic: same sample multiset, same
// bytes. The sample-level functions (WriteSamples, CheckSamples,
// SamplesJSON) are the single rendering path shared by a Registry and by
// the Federator's merged fleet view — which is how federated output stays
// byte-identical to what a single registry would produce for the same
// samples.

// WritePrometheus renders the registry in the Prometheus text exposition
// format, families sorted by name and a single TYPE line per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteSamples(w, r.Gather())
}

// WriteSamples renders a (name, labels)-sorted sample list in the
// Prometheus text exposition format.
func WriteSamples(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	var lastFamily string
	for _, s := range samples {
		family := familyOf(s)
		if family != lastFamily {
			bw.WriteString("# TYPE ")
			bw.WriteString(family)
			bw.WriteByte(' ')
			bw.WriteString(s.Kind.String())
			bw.WriteByte('\n')
			lastFamily = family
		}
		bw.WriteString(s.Name)
		if len(s.Labels) > 0 {
			bw.WriteByte('{')
			for i := 0; i < len(s.Labels); i += 2 {
				if i > 0 {
					bw.WriteByte(',')
				}
				bw.WriteString(s.Labels[i])
				bw.WriteString(`="`)
				bw.WriteString(escapeLabel(s.Labels[i+1]))
				bw.WriteByte('"')
			}
			bw.WriteByte('}')
		}
		bw.WriteByte(' ')
		bw.WriteString(formatFloat(s.Value))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// CheckExposition scans the gathered samples for collisions that would make
// the Prometheus rendering unparseable — a scraper rejects the whole page on
// any of them, so these are registration bugs, not data:
//
//   - two samples sharing name+labels (e.g. a gauge named like a summary's
//     `_max` companion, with the same label set);
//   - one family claimed by two metric kinds;
//   - a family whose samples are not contiguous in sort order, which would
//     render duplicate TYPE lines.
//
// internal/core's Deploy-level brownout test runs it against the full live
// plane, and subsystem tests run it over their Emit output, so a colliding
// family name fails CI instead of the first real scrape.
func (r *Registry) CheckExposition() error {
	return CheckSamples(r.Gather())
}

// CheckSamples runs the CheckExposition collision scan over an explicit
// sample list — how the federation tests vet merged fleet output.
func CheckSamples(samples []Sample) error {
	var lastKey, lastFam string
	kinds := make(map[string]Kind)
	families := make(map[string]bool)
	for i, s := range samples {
		key := s.Name + "\x01" + labelKey(s.Labels)
		if i > 0 && key == lastKey {
			return fmt.Errorf("obs: duplicate sample %s%s", s.Name, renderLabels(s.Labels))
		}
		lastKey = key
		fam := familyOf(s)
		if k, ok := kinds[fam]; ok && k != s.Kind {
			return fmt.Errorf("obs: family %s exposed as both %s and %s", fam, k, s.Kind)
		}
		kinds[fam] = s.Kind
		if fam != lastFam {
			if families[fam] {
				return fmt.Errorf("obs: family %s split into multiple TYPE blocks", fam)
			}
			families[fam] = true
			lastFam = fam
		}
	}
	return nil
}

func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// familyOf maps a sample to its family name: histogram and summary
// companions (_bucket, _sum, _count, _min, _max) share their base family's
// TYPE line.
func familyOf(s Sample) string {
	if s.Kind != KindHistogram && s.Kind != KindSummary {
		return s.Name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count", "_min", "_max"} {
		if strings.HasSuffix(s.Name, suf) {
			return strings.TrimSuffix(s.Name, suf)
		}
	}
	return s.Name
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// MetricJSON is one sample in the JSON exposition schema shared by
// damaris-run's /v1/metrics and the gateway's /v1/metrics alias.
type MetricJSON struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// MetricsDoc is the JSON exposition document body.
type MetricsDoc struct {
	Metrics []MetricJSON `json:"metrics"`
}

// GatherJSON converts the registry's samples to the JSON exposition schema.
func (r *Registry) GatherJSON() []MetricJSON {
	return SamplesJSON(r.Gather())
}

// SamplesJSON converts a sample list to the JSON exposition schema.
func SamplesJSON(samples []Sample) []MetricJSON {
	out := make([]MetricJSON, 0, len(samples))
	for _, s := range samples {
		m := MetricJSON{Name: s.Name, Kind: s.Kind.String(), Value: s.Value}
		if len(s.Labels) > 0 {
			m.Labels = make(map[string]string, len(s.Labels)/2)
			for i := 0; i < len(s.Labels); i += 2 {
				m.Labels[s.Labels[i]] = s.Labels[i+1]
			}
		}
		out = append(out, m)
	}
	return out
}

// SamplesFromJSON converts JSON exposition metrics back into samples —
// the inverse of SamplesJSON, used by the federator's HTTP scrape sources.
// Unknown kinds are an error; labels come back sorted.
func SamplesFromJSON(metrics []MetricJSON) ([]Sample, error) {
	out := make([]Sample, 0, len(metrics))
	for _, m := range metrics {
		k, ok := KindFromString(m.Kind)
		if !ok {
			return nil, fmt.Errorf("obs: metric %s: unknown kind %q", m.Name, m.Kind)
		}
		s := Sample{Name: m.Name, Kind: k, Value: m.Value}
		if len(m.Labels) > 0 {
			ls := make([]string, 0, 2*len(m.Labels))
			for lk, lv := range m.Labels {
				ls = append(ls, lk, lv)
			}
			s.Labels = sortLabels(ls)
		}
		out = append(out, s)
	}
	sortSamples(out)
	return out, nil
}

// WriteJSON renders the JSON exposition document. encoding/json sorts map
// keys, so the bytes are as deterministic as the sample list.
func (r *Registry) WriteJSON(w io.Writer) error {
	return WriteSamplesJSON(w, r.Gather())
}

// WriteSamplesJSON renders an explicit sample list as the JSON exposition
// document — the federated endpoints share this path with WriteJSON.
func WriteSamplesJSON(w io.Writer, samples []Sample) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(MetricsDoc{Metrics: SamplesJSON(samples)})
}
