package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// This file renders gathered samples in the Prometheus text exposition
// format, the one the write plane and the read plane both serve at /metrics.
// The rendering is deterministic: same sample multiset, same bytes.

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
	samples := r.Gather()
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
