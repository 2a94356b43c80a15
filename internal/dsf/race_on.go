//go:build race

package dsf

// poison zeroes a pooled buffer on its way back to its pool — a TOC read or
// a gunzipped shuffle+gzip chunk: a string or a result still aliasing it
// then shows.
func poison(b []byte) { clear(b) }
