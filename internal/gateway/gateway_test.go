package gateway

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/mpi"
	"damaris/internal/store"
	"damaris/internal/viz"
)

// newBackend opens a content-addressed object store in a temp dir with a
// small part size, so even modest DSF objects span many parts.
func newBackend(t testing.TB, partSize int) store.Backend {
	t.Helper()
	b, err := store.OpenWith("obj://"+t.TempDir(), store.Options{PartSize: int64(partSize)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// writeDSFObject commits one DSF object with nsrc float32 chunks of variable
// "theta", each 64x64 and globally placed as row bands, scaled by scale so
// different objects can carry identical or distinct part content on demand.
func writeDSFObject(t testing.TB, b store.Backend, name string, iteration int64, nsrc int, scale float32) {
	t.Helper()
	writeDSFObjectCodec(t, b, name, iteration, nsrc, scale, dsf.None)
}

// writeDSFObjectCodec is writeDSFObject with the chunks' codec chosen.
func writeDSFObjectCodec(t testing.TB, b store.Backend, name string, iteration int64, nsrc int, scale float32, codec dsf.Codec) {
	t.Helper()
	ow, err := b.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dsf.NewWriter(ow)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAttribute("unit", "K")
	lay := layout.MustNew(layout.Float32, 64, 64)
	for src := 0; src < nsrc; src++ {
		xs := make([]float32, 64*64)
		for i := range xs {
			xs[i] = scale * float32(src*len(xs)+i)
		}
		meta := dsf.ChunkMeta{
			Name: "theta", Iteration: iteration, Source: src, Layout: lay, Codec: codec,
			Global: layout.Block{
				Start: []int64{int64(src) * 64, 0},
				Count: []int64{64, 64},
			},
		}
		if err := w.WriteChunk(meta, mpi.Float32sToBytes(xs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ow.Commit(); err != nil {
		t.Fatal(err)
	}
}

// serialBytes reads the whole object through the store's own serial reader —
// the reference path the gateway must match byte for byte.
func serialBytes(t testing.TB, b store.Backend, name string) []byte {
	t.Helper()
	r, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, r.Size())
	if n, err := r.ReadAt(buf, 0); int64(n) != r.Size() || (err != nil && err != io.EOF) {
		t.Fatalf("serial read: n=%d err=%v", n, err)
	}
	return buf
}

func newGateway(t testing.TB, b store.Backend, cfg Config) *Gateway {
	t.Helper()
	cfg.Backend = b
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The satellite -race stress: many goroutines read overlapping ranges of one
// object through the gateway's part cache and parallel range reader; every
// byte must match the store's serial path, and singleflight plus the LRU must
// keep backend Gets at no more than one per part.
func TestGatewayConcurrentRangesMatchSerial(t *testing.T) {
	b := newBackend(t, 1024)
	writeDSFObject(t, b, "stress.dsf", 0, 4, 1)
	ref := serialBytes(t, b, "stress.dsf")
	g := newGateway(t, b, Config{})

	m, err := g.Manifest("stress.dsf")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parts) < 8 {
		t.Fatalf("object spans %d parts, want >= 8 for a meaningful fan-out test", len(m.Parts))
	}

	const goroutines, reads = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < reads; i++ {
				off := rng.Int63n(int64(len(ref)))
				length := rng.Int63n(int64(len(ref))-off) + 1
				got, err := g.ReadRange("stress.dsf", off, length)
				if err != nil {
					errs <- fmt.Errorf("ReadRange(%d,%d): %w", off, length, err)
					return
				}
				if !bytes.Equal(got, ref[off:off+length]) {
					errs <- fmt.Errorf("ReadRange(%d,%d): bytes differ from serial path", off, length)
					return
				}
			}
		}(int64(gi))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := g.Stats()
	if s.BackendGets > int64(len(m.Parts)) {
		t.Errorf("backend Gets = %d for %d parts; singleflight/cache should fetch each part at most once",
			s.BackendGets, len(m.Parts))
	}
	if s.PartHits == 0 {
		t.Error("overlapping reads produced zero part-cache hits")
	}
	if s.PartHitRate() < 0.5 {
		t.Errorf("part hit rate = %.2f, want >= 0.5 under heavy overlap", s.PartHitRate())
	}
	if s.MaxRangesInFlight < 2 {
		t.Errorf("max ranges in flight = %d, want concurrent ranges observed", s.MaxRangesInFlight)
	}
}

// Dedupe makes the part cache global: a second object with identical content
// resolves to the same digests, so reading it is pure cache hits — zero new
// backend Gets, non-zero hit rate across distinct objects.
func TestGatewayDedupeSharesPartsAcrossObjects(t *testing.T) {
	b := newBackend(t, 2048)
	writeDSFObject(t, b, "run_a.dsf", 0, 4, 1)
	writeDSFObject(t, b, "run_b.dsf", 0, 4, 1) // identical content, distinct object
	g := newGateway(t, b, Config{})

	refA := serialBytes(t, b, "run_a.dsf")
	if _, err := g.ReadRange("run_a.dsf", 0, int64(len(refA))); err != nil {
		t.Fatal(err)
	}
	cold := g.Stats()
	if cold.BackendGets == 0 {
		t.Fatal("cold read fetched nothing from the backend")
	}

	gotB, err := g.ReadRange("run_b.dsf", 0, int64(len(refA)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, refA) {
		t.Fatal("deduped object differs from its twin")
	}
	warm := g.Stats()
	if warm.BackendGets != cold.BackendGets {
		t.Errorf("reading the deduped twin cost %d extra backend Gets, want 0",
			warm.BackendGets-cold.BackendGets)
	}
	if warm.PartHits <= cold.PartHits {
		t.Error("no part-cache hits recorded across distinct objects sharing content")
	}

	// Warm path on the original: every part hit, zero Gets.
	before := g.Stats().BackendGets
	if _, err := g.ReadRange("run_a.dsf", 0, int64(len(refA))); err != nil {
		t.Fatal(err)
	}
	if after := g.Stats().BackendGets; after != before {
		t.Errorf("warm re-read cost %d backend Gets, want 0", after-before)
	}
}

// Field reads through the gateway must match viz over the store's own
// reader, and chunk payloads must round-trip with their metadata.
func TestGatewayFieldAndChunks(t *testing.T) {
	b := newBackend(t, 4096)
	writeDSFObject(t, b, "field.dsf", 3, 4, 2)
	g := newGateway(t, b, Config{})

	or, err := b.Open("field.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer or.Close()
	dr, err := dsf.OpenReaderAt(or, or.Size())
	if err != nil {
		t.Fatal(err)
	}
	want, err := viz.FromReader(dr, "theta", 3)
	if err != nil {
		t.Fatal(err)
	}

	got, err := g.Field("field.dsf", "theta", 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Dims) != fmt.Sprint(want.Dims) {
		t.Fatalf("dims = %v, want %v", got.Dims, want.Dims)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("field value %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}

	for i := 0; i < dr.NumChunks(); i++ {
		wantData, err := dr.ReadChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		meta, gotData, err := g.ReadChunk("field.dsf", i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotData, wantData) {
			t.Fatalf("chunk %d payload differs", i)
		}
		if meta.Name != "theta" || meta.Source != i {
			t.Fatalf("chunk %d meta = %+v", i, meta)
		}
	}

	vars, err := g.Variables()
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 || vars[0] != "theta" {
		t.Fatalf("Variables() = %v", vars)
	}
	its, err := g.Iterations()
	if err != nil {
		t.Fatal(err)
	}
	if len(its) != 1 || its[0] != 3 {
		t.Fatalf("Iterations() = %v", its)
	}
}

// Rewriting an object changes its manifest signature; the TOC cache must
// notice on the next open and serve the new content.
func TestGatewayInvalidatesOnObjectChange(t *testing.T) {
	b := newBackend(t, 4096)
	writeDSFObject(t, b, "mut.dsf", 0, 2, 1)
	g := newGateway(t, b, Config{})

	r1, err := g.Reader("mut.dsf")
	if err != nil {
		t.Fatal(err)
	}
	if r1.NumChunks() != 2 {
		t.Fatalf("chunks = %d, want 2", r1.NumChunks())
	}

	// Replace with a different-size object so the signature changes even on
	// coarse mtime filesystems.
	writeDSFObject(t, b, "mut.dsf", 0, 3, 5)
	r2, err := g.Reader("mut.dsf")
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumChunks() != 3 {
		t.Fatalf("after rewrite: chunks = %d, want 3 (stale TOC served)", r2.NumChunks())
	}
	if s := g.Stats(); s.TOCInvalidations == 0 {
		t.Error("rewrite produced no TOC invalidation")
	}
}

func TestOwnerStableAndInRange(t *testing.T) {
	for _, replicas := range []int{1, 2, 3, 7} {
		seen := map[int]bool{}
		for i := 0; i < 64; i++ {
			name := fmt.Sprintf("node%04d_it%06d.dsf", i%4, i)
			o := Owner(name, replicas)
			if o < 0 || o >= replicas {
				t.Fatalf("Owner(%q,%d) = %d out of range", name, replicas, o)
			}
			if o2 := Owner(name, replicas); o2 != o {
				t.Fatalf("Owner not deterministic: %d then %d", o, o2)
			}
			seen[o] = true
		}
		if replicas > 1 && len(seen) < 2 {
			t.Errorf("replicas=%d: all 64 objects hashed to one owner", replicas)
		}
	}
}

// switchboard lets us start the HTTP listeners before the gateways exist:
// the peer URLs feed gateway construction, then the handlers are installed.
type switchboard struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *switchboard) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *switchboard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// twoReplicas starts two gateway replicas over the same store root, each
// with its own backend handle, partitioned over the same peer list.
func twoReplicas(t *testing.T, root string, forward bool) (urls [2]string) {
	t.Helper()
	boards := [2]*switchboard{{}, {}}
	for i := range boards {
		srv := httptest.NewServer(boards[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	for i := range boards {
		b, err := store.Open("obj://" + root)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		g, err := New(Config{Backend: b, Peers: urls[:], Self: i, Forward: forward})
		if err != nil {
			t.Fatal(err)
		}
		boards[i].set(g.Handler())
	}
	return urls
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// The acceptance claim: two replicas over one store answer byte-identically
// for every object, chunk, and assembled field, whichever replica the client
// happens to ask (forward mode proxies misrouted requests to the owner).
func TestTwoReplicasByteIdentical(t *testing.T) {
	root := t.TempDir()
	b, err := store.Open("obj://" + root)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for it := int64(0); it < 3; it++ {
		writeDSFObject(t, b, fmt.Sprintf("node0000_it%06d.dsf", it), it, 4, float32(it+1))
	}
	objs, err := b.Objects()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("%d objects, want 3", len(objs))
	}

	urls := twoReplicas(t, root, true)
	for _, o := range objs {
		for _, path := range []string{
			"/v1/object/" + o.Name,
			"/v1/chunk/" + o.Name + "?index=0",
			"/v1/chunk/" + o.Name + "?index=3",
			fmt.Sprintf("/v1/raw/%s?off=0&len=%d", o.Name, o.Size),
			fmt.Sprintf("/v1/field/%s?var=theta&iteration=%d&format=raw", o.Name, objIteration(t, b, o.Name)),
		} {
			code0, body0 := httpGet(t, urls[0]+path)
			code1, body1 := httpGet(t, urls[1]+path)
			if code0 != http.StatusOK || code1 != http.StatusOK {
				t.Fatalf("%s: status %d / %d", path, code0, code1)
			}
			if !bytes.Equal(body0, body1) {
				t.Fatalf("%s: replicas returned different bodies (%d vs %d bytes)",
					path, len(body0), len(body1))
			}
		}
	}

	// List endpoints are served by any replica, identically.
	for _, path := range []string{"/v1/objects", "/v1/variables", "/v1/iterations"} {
		_, body0 := httpGet(t, urls[0]+path)
		_, body1 := httpGet(t, urls[1]+path)
		if !bytes.Equal(body0, body1) {
			t.Fatalf("%s: list bodies differ", path)
		}
	}

	// Missing objects are 404, not 500.
	code, _ := httpGet(t, urls[0]+"/v1/object/absent.dsf")
	if code != http.StatusNotFound {
		t.Fatalf("missing object: status %d, want 404", code)
	}
}

func objIteration(t *testing.T, b store.Backend, name string) int64 {
	t.Helper()
	m, err := storeReader(t, b, name).Chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	return m.Iteration
}

// Redirect mode: a request for an object the receiving replica does not own
// answers 307 with the owner's URL; the owner serves it directly.
func TestReplicaRedirects(t *testing.T) {
	root := t.TempDir()
	b, err := store.Open("obj://" + root)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	writeDSFObject(t, b, "redir.dsf", 0, 2, 1)

	urls := twoReplicas(t, root, false)
	owner := Owner("redir.dsf", 2)
	nonOwner := 1 - owner

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(urls[nonOwner] + "/v1/object/redir.dsf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner status = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != urls[owner]+"/v1/object/redir.dsf" {
		t.Fatalf("Location = %q, want owner %q", loc, urls[owner]+"/v1/object/redir.dsf")
	}

	code, _ := httpGet(t, urls[owner]+"/v1/object/redir.dsf")
	if code != http.StatusOK {
		t.Fatalf("owner status = %d", code)
	}
}
