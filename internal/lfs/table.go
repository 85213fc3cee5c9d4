package lfs

import "nvramfs/internal/blockmap"

// appendFileIndexes appends the indexes of file's entries in t, in slot
// order.
func appendFileIndexes[V any](dst []int64, t *blockmap.Table[V], file uint64) []int64 {
	t.Each(func(id blockID, _ V) {
		if id.File == file {
			dst = append(dst, id.Index)
		}
	})
	return dst
}
