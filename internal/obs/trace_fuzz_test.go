package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadSpansJSONL drives the trace-file reader dsf-inspect -trace runs
// over per-rank files from disk. It never panics; whatever it accepts
// round-trips through WriteSpansJSONL and back to equal spans, none with a
// negative duration or shard; and a line whose stage is not a known stage
// name is an error.
func FuzzReadSpansJSONL(f *testing.F) {
	for _, seed := range []struct{ doc, stage string }{
		{`{"stage":"spill","server":3,"origin":3,"iter":7,"start_ns":12345,"dur_ns":2000000,"bytes":4096,"err":true}` + "\n" +
			`{"stage":"merge","server":0,"origin":0,"iter":8,"start_ns":23456,"dur_ns":1000000}` + "\n", "write"},
		{`{"stage":"write","server":0,"origin":5,"shard":1,"iter":12,"start_ns":777,"dur_ns":1000000,"bytes":2048}` + "\n", "persist"},
		{`{"stage":"persist","server":3,"iter":1,"start":10,"dur_ns":20,"bytes":0,"err":false}` + "\n", "nope"},
		{`{"stage":"write","shard":-2}`, ""},
		{`{"stage":"write","server":1,"iter":3,"start_ns":1000,"dur_ns":-500}` + "\n" +
			`{"stage":"ack","server":1,"iter":3,"start_ns":2000,"dur_ns":-9000}` + "\n", "ack"},
		{`{"stage":"write"}]`, "Write"},
		{`null`, "write "},
		{``, "é"},
	} {
		f.Add(seed.doc, seed.stage)
	}
	f.Fuzz(func(t *testing.T, doc, stage string) {
		spans, err := ReadSpansJSONL(strings.NewReader(doc))
		if err == nil {
			for _, sp := range spans {
				if sp.Dur < 0 || sp.Shard < -1 {
					t.Fatalf("accepted a span WriteSpansJSONL never writes: %+v", sp)
				}
			}
			var buf bytes.Buffer
			if err := WriteSpansJSONL(&buf, spans); err != nil {
				t.Fatalf("writing accepted spans: %v", err)
			}
			back, err := ReadSpansJSONL(&buf)
			if err != nil {
				t.Fatalf("reading back accepted spans: %v\n%s", err, buf.Bytes())
			}
			if len(spans) > 0 || len(back) > 0 {
				if !reflect.DeepEqual(back, spans) {
					t.Fatalf("round trip changed the spans:\n got %+v\nwant %+v", back, spans)
				}
			}
		}

		name, _ := json.Marshal(stage)
		_, err = ReadSpansJSONL(strings.NewReader(`{"stage":` + string(name) + `}`))
		if _, known := StageFromString(stage); known != (err == nil) {
			t.Fatalf("stage %q: known=%v, read error %v", stage, known, err)
		}
	})
}
