package skiplist

import (
	"testing"

	"repro/internal/dstest"
	"repro/internal/smr"
)

// FuzzSkipListVsModel drives the skip list under every scheme it is built
// for — under OA its delete emits a multi-CAS list per the paper's
// normalized form — with a byte-encoded operation sequence against a model
// map (see dstest.RunSetVsModel).
func FuzzSkipListVsModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 2, 2, 1, 2, 3})
	f.Add([]byte{0, 9, 1, 9, 0, 9, 1, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sc := range []smr.Scheme{smr.NoRecl, smr.OA, smr.HP, smr.EBR} {
			sl, err := New(sc, dstest.FuzzSizing(sc, 512, len(data)/2))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(sc.String(), func(t *testing.T) { dstest.RunSetVsModel(t, sl.Session(0), data) })
		}
	})
}
