//go:build race

package dsf

// poison zeroes a pooled buffer on its way back to its pool — a TOC read, a
// gunzipped shuffle+gzip chunk or an encoded chunk's output: a string or a
// result still aliasing it then shows.
func poison(b []byte) { clear(b) }
