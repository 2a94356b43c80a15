package dsf

import (
	"fmt"
	"path/filepath"
	"sort"
)

// Collection presents a set of DSF files — e.g. everything a Damaris run
// wrote, one file per node per iteration — as a single dataset. This is
// what an analysis or visualization tool opens after a run.
type Collection struct {
	readers []*Reader
	paths   []string
	// index maps a chunk's position across files.
	index []chunkRef
}

type chunkRef struct {
	file  int // index into readers
	chunk int // index within the file
}

// OpenCollection opens every file matching the glob pattern as one
// collection. Matches are sorted by name before opening, so iteration order
// is stable under the damaris persister's naming scheme. To open an
// explicit list of paths instead of a pattern, use OpenFiles.
func OpenCollection(pattern string) (*Collection, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("dsf: collection glob: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("dsf: collection %q matches no files", pattern)
	}
	sort.Strings(paths)
	return OpenFiles(paths)
}

// OpenFiles opens an explicit list of DSF files as a collection.
func OpenFiles(paths []string) (*Collection, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("dsf: empty collection")
	}
	c := &Collection{}
	for _, p := range paths {
		r, err := Open(p)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dsf: collection member %s: %w", p, err)
		}
		for i := 0; i < r.NumChunks(); i++ {
			c.index = append(c.index, chunkRef{file: len(c.readers), chunk: i})
		}
		c.readers = append(c.readers, r)
		c.paths = append(c.paths, p)
	}
	return c, nil
}

// Close releases every member file.
func (c *Collection) Close() error {
	var first error
	for _, r := range c.readers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.readers = nil
	return first
}

// Files lists the member paths in collection order.
func (c *Collection) Files() []string { return append([]string(nil), c.paths...) }

// Len returns the total chunk count across all files.
func (c *Collection) Len() int { return len(c.index) }

// Chunk returns the metadata of the i-th chunk of the collection (a copy,
// like Reader.Chunk).
func (c *Collection) Chunk(i int) (ChunkMeta, error) {
	if i < 0 || i >= len(c.index) {
		return ChunkMeta{}, fmt.Errorf("dsf: collection chunk %d out of range [0,%d)", i, len(c.index))
	}
	ref := c.index[i]
	return copyMeta(c.readers[ref.file].chunks[ref.chunk].ChunkMeta), nil
}

// ReadChunk returns the decoded payload of the i-th chunk.
func (c *Collection) ReadChunk(i int) ([]byte, error) {
	if i < 0 || i >= len(c.index) {
		return nil, fmt.Errorf("dsf: collection chunk %d out of range [0,%d)", i, len(c.index))
	}
	ref := c.index[i]
	return c.readers[ref.file].ReadChunk(ref.chunk)
}

// Variables lists the distinct variable names present, sorted.
func (c *Collection) Variables() []string {
	seen := make(map[string]bool)
	for _, ref := range c.index {
		seen[c.readers[ref.file].chunks[ref.chunk].Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Iterations lists the distinct iterations present, ascending.
func (c *Collection) Iterations() []int64 {
	seen := make(map[int64]bool)
	for _, ref := range c.index {
		seen[c.readers[ref.file].chunks[ref.chunk].Iteration] = true
	}
	out := make([]int64, 0, len(seen))
	for it := range seen {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Select returns the collection-level indices of all chunks of one variable
// at one iteration, sorted by source — the set a reassembly needs. The
// sources are captured once during the scan, not re-fetched (with errors
// discarded) on every comparator call.
func (c *Collection) Select(name string, iteration int64) []int {
	var out []int
	var sources []int
	for i, ref := range c.index {
		m := &c.readers[ref.file].chunks[ref.chunk]
		if m.Name == name && m.Iteration == iteration {
			out = append(out, i)
			sources = append(sources, m.Source)
		}
	}
	sort.Sort(&bySource{idx: out, src: sources})
	return out
}

// bySource co-sorts selected indices by their captured sources.
type bySource struct {
	idx []int
	src []int
}

func (s *bySource) Len() int           { return len(s.idx) }
func (s *bySource) Less(a, b int) bool { return s.src[a] < s.src[b] }
func (s *bySource) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.src[a], s.src[b] = s.src[b], s.src[a]
}

// Verify checks every chunk of every member file.
func (c *Collection) Verify() error {
	for i, r := range c.readers {
		if err := r.Verify(); err != nil {
			return fmt.Errorf("dsf: collection member %s: %w", c.paths[i], err)
		}
	}
	return nil
}
