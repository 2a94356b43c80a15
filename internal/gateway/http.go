package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"damaris/internal/dsf"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
	"damaris/internal/viz"
)

// Handler returns the gateway's HTTP API:
//
//	GET /healthz                      liveness
//	GET /metrics                      the telemetry registry, Prometheus text
//	GET /v1/objects                   committed objects (JSON)
//	GET /v1/variables                 distinct variable names across objects
//	GET /v1/iterations                distinct iterations across objects
//	GET /v1/object/{name...}          object info: manifest + attributes + chunk metas
//	GET /v1/chunk/{name...}?index=i   decoded chunk payload (octet-stream)
//	GET /v1/raw/{name...}?off=&len=   raw bytes of the object's DSF stream
//	GET /v1/field/{name...}?var=&iteration=[&format=raw]
//	                                  viz.Assemble-backed dense field read
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	// Telemetry-plane routes (/metrics, /trace, /epochs, /readyz)
	// fold into the same mux, so the read plane exposes the exact
	// exposition damaris-run's -metrics-addr listener serves. pprof is NOT
	// mounted here — this mux faces data clients, and profiles would be
	// both an information leak and a DoS vector.
	obs.RegisterRoutes(mux, g.obs)
	mux.HandleFunc("GET /v1/objects", g.countReq(g.handleObjects))
	mux.HandleFunc("GET /v1/variables", g.countReq(g.handleVariables))
	mux.HandleFunc("GET /v1/iterations", g.countReq(g.handleIterations))
	mux.HandleFunc("GET /v1/object/{name...}", g.countReq(objectScoped(g.handleObject)))
	mux.HandleFunc("GET /v1/chunk/{name...}", g.countReq(objectScoped(g.handleChunk)))
	mux.HandleFunc("GET /v1/raw/{name...}", g.countReq(objectScoped(g.handleRaw)))
	mux.HandleFunc("GET /v1/field/{name...}", g.countReq(objectScoped(g.handleField)))
	return mux
}

func (g *Gateway) countReq(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g.met.Lock()
		g.met.requests++
		g.met.Unlock()
		h(w, r)
	}
}

// objectScoped hands an object-scoped handler its non-empty object name.
func objectScoped(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		object := r.PathValue("name")
		if object == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("gateway: empty object name"))
			return
		}
		h(w, r, object)
	}
}

// httpError answers with fallback unless err is one of the faults only the
// request's own parameters can cause.
func httpError(w http.ResponseWriter, fallback int, err error) {
	code := fallback
	switch {
	case errors.Is(err, store.ErrNotExist), errors.Is(err, viz.ErrNoChunks):
		code = http.StatusNotFound
	case errors.Is(err, dsf.ErrChunkIndex):
		code = http.StatusBadRequest
	case errors.Is(err, ErrRange):
		code = http.StatusRequestedRangeNotSatisfiable
	}
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (g *Gateway) handleObjects(w http.ResponseWriter, r *http.Request) {
	objs, err := g.Objects()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if objs == nil {
		objs = []store.ObjectInfo{}
	}
	writeJSON(w, objs)
}

func (g *Gateway) handleVariables(w http.ResponseWriter, r *http.Request) {
	vars, err := g.Variables()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if vars == nil {
		vars = []string{}
	}
	writeJSON(w, vars)
}

func (g *Gateway) handleIterations(w http.ResponseWriter, r *http.Request) {
	its, err := g.Iterations()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if its == nil {
		its = []int64{}
	}
	writeJSON(w, its)
}

// objectInfo is the /v1/object response body.
type objectInfo struct {
	Name       string            `json:"name"`
	Size       int64             `json:"size"`
	Parts      int               `json:"parts"`
	Attributes map[string]string `json:"attributes"`
	Chunks     []chunkInfo       `json:"chunks"`
}

type chunkInfo struct {
	Index     int     `json:"index"`
	Name      string  `json:"name"`
	Iteration int64   `json:"iteration"`
	Source    int     `json:"source"`
	Type      string  `json:"type"`
	Extents   []int64 `json:"extents"`
	Codec     string  `json:"codec"`
	RawSize   int64   `json:"raw_size"`
	Stored    int64   `json:"stored"`
	Start     []int64 `json:"global_start,omitempty"`
	Count     []int64 `json:"global_count,omitempty"`
}

func chunkInfoOf(i int, m dsf.ChunkMeta) chunkInfo {
	ci := chunkInfo{
		Index:     i,
		Name:      m.Name,
		Iteration: m.Iteration,
		Source:    m.Source,
		Type:      m.Layout.Type().String(),
		Extents:   m.Layout.Extents(),
		Codec:     m.Codec.String(),
		RawSize:   m.RawSize,
		Stored:    m.Stored,
	}
	if m.Global.Valid() {
		ci.Start, ci.Count = m.Global.Start, m.Global.Count
	}
	return ci
}

func (g *Gateway) handleObject(w http.ResponseWriter, r *http.Request, object string) {
	// One open: a manifest and a reader from two could come from two builds.
	e, err := g.open(object)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	m, rd := e.m, e.reader
	info := objectInfo{
		Name:       object,
		Size:       m.Size,
		Parts:      len(m.Parts),
		Attributes: rd.Attributes(),
		Chunks:     make([]chunkInfo, 0, rd.NumChunks()),
	}
	for i, cm := range rd.Chunks() {
		info.Chunks = append(info.Chunks, chunkInfoOf(i, cm))
	}
	writeJSON(w, info)
}

func (g *Gateway) handleChunk(w http.ResponseWriter, r *http.Request, object string) {
	idx, err := strconv.Atoi(r.URL.Query().Get("index"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("gateway: bad chunk index: %w", err))
		return
	}
	meta, data, err := g.ReadChunk(object, idx)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Dsf-Name", meta.Name)
	w.Header().Set("X-Dsf-Iteration", strconv.FormatInt(meta.Iteration, 10))
	w.Header().Set("X-Dsf-Source", strconv.Itoa(meta.Source))
	w.Header().Set("X-Dsf-Codec", meta.Codec.String())
	w.Write(data)
}

func (g *Gateway) handleRaw(w http.ResponseWriter, r *http.Request, object string) {
	q := r.URL.Query()
	off, err := strconv.ParseInt(q.Get("off"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("gateway: bad off: %w", err))
		return
	}
	length, err := strconv.ParseInt(q.Get("len"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("gateway: bad len: %w", err))
		return
	}
	segs, err := g.rangeSegments(object, off, length)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(segsLen(segs)))
	// Part by part, straight out of the cache: a range over many parts is
	// never assembled in memory.
	for _, seg := range segs {
		if _, err := w.Write(seg); err != nil {
			return // the client went away
		}
	}
}

// fieldJSON is the /v1/field JSON response body.
type fieldJSON struct {
	Object    string    `json:"object"`
	Variable  string    `json:"variable"`
	Iteration int64     `json:"iteration"`
	Dims      []int64   `json:"dims"`
	Values    []float32 `json:"values"`
}

func (g *Gateway) handleField(w http.ResponseWriter, r *http.Request, object string) {
	q := r.URL.Query()
	name := q.Get("var")
	if name == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("gateway: field read needs var="))
		return
	}
	iteration, err := strconv.ParseInt(q.Get("iteration"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("gateway: bad iteration: %w", err))
		return
	}
	f, err := g.Field(object, name, iteration)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if q.Get("format") == "raw" {
		dims := make([]string, len(f.Dims))
		for i, d := range f.Dims {
			dims[i] = strconv.FormatInt(d, 10)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Field-Dims", strings.Join(dims, ","))
		w.Write(mpi.Float32sToBytes(f.Data))
		return
	}
	writeJSON(w, fieldJSON{
		Object: object, Variable: name, Iteration: iteration,
		Dims: f.Dims, Values: f.Data,
	})
}
