//go:build race

package remote

// poisonFrame overwrites a frame buffer whose borrowed values are dead, so
// under the race detector a callback that kept a borrowed string or byte
// slice past its return reads 0xDB instead of silently reading whatever
// frame reuses the buffer next.
func poisonFrame(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}
