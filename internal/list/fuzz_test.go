package list_test

import (
	"testing"

	"repro/internal/dstest"
	"repro/internal/list"
	"repro/internal/smr"
)

// FuzzListVsModel drives the list under every scheme with a byte-encoded
// operation sequence, comparing every result against a model map (see
// dstest.RunSetVsModel). Run beyond the seed corpus with
// `go test -fuzz FuzzListVsModel ./internal/list`.
func FuzzListVsModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 1, 0, 2, 2, 2})
	f.Add([]byte{0, 5, 0, 5, 1, 5, 1, 5, 2, 5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sc := range smr.Schemes {
			// A tiny capacity maximizes reclamation pressure per op.
			l, err := list.New(sc, dstest.FuzzSizing(sc, 256, len(data)/2))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(sc.String(), func(t *testing.T) { dstest.RunSetVsModel(t, l.Session(0), data) })
		}
	})
}
