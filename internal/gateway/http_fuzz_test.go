package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"damaris/internal/mpi"
	"damaris/internal/viz"
)

// A request that asks for what the object does not have is answered as the
// caller's fault, each kind with its own status.
func TestParameterFaultStatus(t *testing.T) {
	b := newBackend(t, 8<<10)
	writeDSFObject(t, b, "obj.dsf", 4, 1, 1)
	h := newGateway(t, b, Config{}).Handler()
	for target, want := range map[string]int{
		"/v1/chunk/obj.dsf?index=0":                http.StatusOK,
		"/v1/chunk/obj.dsf?index=99":               http.StatusBadRequest,
		"/v1/chunk/obj.dsf?index=-1":               http.StatusBadRequest,
		"/v1/chunk/obj.dsf?index=zero":             http.StatusBadRequest,
		"/v1/raw/obj.dsf?off=99999999&len=1":       http.StatusRequestedRangeNotSatisfiable,
		"/v1/raw/obj.dsf?off=-1&len=1":             http.StatusRequestedRangeNotSatisfiable,
		"/v1/raw/obj.dsf?off=0&len=-1":             http.StatusRequestedRangeNotSatisfiable,
		"/v1/field/obj.dsf?var=nope&iteration=4":   http.StatusNotFound,
		"/v1/field/obj.dsf?var=theta&iteration=5":  http.StatusNotFound,
		"/v1/chunk/missing.dsf?index=0":            http.StatusNotFound,
		"/v1/raw/missing.dsf?off=0&len=1":          http.StatusNotFound,
		"/v1/field/missing.dsf?var=t&iteration=0":  http.StatusNotFound,
		"/v1/field/obj.dsf?var=theta&iteration=4":  http.StatusOK,
		"/v1/raw/obj.dsf?off=0&len=99999999999999": http.StatusOK,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != want {
			t.Errorf("GET %s: %d, want %d (%s)", target, rec.Code, want, bytes.TrimSpace(rec.Body.Bytes()))
		}
	}
}

// FuzzGatewayParams: the object is there and intact, so whatever goes wrong
// with a request is its parameters' fault. No query string makes the handler
// panic or answer 5xx, and a 200 carries exactly the reference bytes.
func FuzzGatewayParams(f *testing.F) {
	b := newBackend(f, 8<<10)
	writeDSFObject(f, b, "fuzz.dsf", 4, 1, 1) // 16 KiB chunk + TOC: three parts
	ref := serialBytes(f, b, "fuzz.dsf")
	size := int64(len(ref))
	dr := storeReader(f, b, "fuzz.dsf")
	chunk, err := dr.ReadChunk(0)
	if err != nil {
		f.Fatal(err)
	}
	field, err := viz.FromReader(dr, "theta", 4)
	if err != nil {
		f.Fatal(err)
	}
	h := newGateway(f, b, Config{}).Handler()

	for _, seed := range [][4]string{
		{"chunk", "0"}, {"chunk", "99"}, {"chunk", "-1"}, {"chunk", ""}, {"chunk", "0x0"},
		{"raw", "0", strconv.FormatInt(size, 10)}, {"raw", "8191", "2"}, {"raw", "1", "9223372036854775807"},
		{"raw", strconv.FormatInt(size, 10), "0"}, {"raw", strconv.FormatInt(size+1, 10), "0"},
		{"raw", "-1", "4"}, {"raw", "4", "-1"}, {"raw", "", ""}, {"raw", "1e3", "8"},
		{"field", "theta", "4"}, {"field", "theta", "4", "raw"}, {"field", "theta", "5"},
		{"field", "nope", "4"}, {"field", "", "4"}, {"field", "theta", "four"}, {"field", "theta", "4", "bogus"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, endpoint, p1, p2, p3 string) {
		q := url.Values{}
		switch endpoint {
		case "chunk":
			q.Set("index", p1)
		case "raw":
			q.Set("off", p1)
			q.Set("len", p2)
		case "field":
			q.Set("var", p1)
			q.Set("iteration", p2)
			q.Set("format", p3)
		default:
			t.Skip()
		}
		target := "/v1/" + endpoint + "/fuzz.dsf?" + q.Encode()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code >= 500 {
			t.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		want := chunk
		switch endpoint {
		case "raw":
			off, _ := strconv.ParseInt(p1, 10, 64)
			length, _ := strconv.ParseInt(p2, 10, 64)
			if off < 0 || off > size || length < 0 {
				t.Fatalf("GET %s: 200 for a range outside the object's %d bytes", target, size)
			}
			want = ref[off:min(size, off+min(length, size-off))]
		case "field":
			if it, err := strconv.ParseInt(p2, 10, 64); p1 != "theta" || err != nil || it != 4 {
				t.Fatalf("GET %s: 200 for a field the object does not hold", target)
			}
			want = mpi.Float32sToBytes(field.Data)
			if p3 != "raw" {
				var body fieldJSON
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Fatalf("GET %s: %v", target, err)
				}
				if !bytes.Equal(mpi.Float32sToBytes(body.Values), want) {
					t.Fatalf("GET %s: field values differ from the reference", target)
				}
				return
			}
		default:
			if idx, err := strconv.Atoi(p1); err != nil || idx != 0 {
				t.Fatalf("GET %s: 200 for a chunk the object does not hold", target)
			}
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("GET %s: %d body bytes differ from the reference's %d", target, rec.Body.Len(), len(want))
		}
	})
}
