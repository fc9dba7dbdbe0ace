package workload

import (
	"fmt"
	"testing"

	"perfstacks/internal/trace"
)

// TestGeneratorBatchScalarEquivalence is the batch/scalar equivalence
// property for the synthetic generator: ReadBatch must deliver the exact uop
// stream repeated Next calls would — same RNG draw order, same cached static
// properties — for every profile, seed and batch size.
func TestGeneratorBatchScalarEquivalence(t *testing.T) {
	const n = 50_000
	batchSizes := []int{1, 3, 7, 64, 256}
	profiles := []string{"mcf", "exchange2", "lbm", "imagick", "cactuBSSN"}
	seeds := []uint64{0, 1, 0x5eed}

	for _, name := range profiles {
		prof, ok := SPECProfile(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		for _, seed := range seeds {
			p := prof
			p.Seed = seed

			scalar := NewGenerator(p)
			want := make([]trace.Uop, n)
			for i := range want {
				u, ok := scalar.Next()
				if !ok {
					t.Fatalf("generator ended at uop %d", i)
				}
				want[i] = u
			}

			for _, bs := range batchSizes {
				t.Run(fmt.Sprintf("%s/seed=%d/batch=%d", name, seed, bs), func(t *testing.T) {
					g := NewGenerator(p)
					buf := make([]trace.Uop, bs)
					got := 0
					for got < n {
						m := g.ReadBatch(buf)
						if m != bs {
							t.Fatalf("ReadBatch = %d, want %d (generator never ends)", m, bs)
						}
						for i := 0; i < m && got < n; i, got = i+1, got+1 {
							if buf[i] != want[got] {
								t.Fatalf("uop %d differs:\nscalar %+v\nbatch  %+v",
									got, want[got], buf[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestGeneratorBatchInterleave mixes Next and ReadBatch on one generator;
// the merged stream must match a pure-scalar run draw for draw.
func TestGeneratorBatchInterleave(t *testing.T) {
	const n = 20_000
	p, _ := SPECProfile("mcf")

	scalar := NewGenerator(p)
	want := make([]trace.Uop, n)
	for i := range want {
		want[i], _ = scalar.Next()
	}

	g := NewGenerator(p)
	var got []trace.Uop
	buf := make([]trace.Uop, 17)
	for len(got) < n {
		if len(got)%2 == 0 {
			u, _ := g.Next()
			got = append(got, u)
		} else {
			m := g.ReadBatch(buf)
			got = append(got, buf[:m]...)
		}
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("uop %d differs:\nscalar %+v\nmixed  %+v", i, want[i], got[i])
		}
	}
}

// TestKernelBatchScalarEquivalence is the batch/scalar equivalence property
// for the DeepBench kernels: Gemm and Conv ReadBatch deliver the stream of
// repeated Next calls, in both code styles, with and without barriers.
func TestKernelBatchScalarEquivalence(t *testing.T) {
	const n = 20_000
	kernels := map[string]func() trace.BatchReader{
		"gemm/KNL":         func() trace.BatchReader { return NewGemm(StyleKNL, GemmTrain()[2], 16, 1, 0) },
		"gemm/SKX/barrier": func() trace.BatchReader { return NewGemm(StyleSKX, GemmTrain()[0], 16, 3, 500) },
		"conv/KNL/barrier": func() trace.BatchReader { return NewConv(StyleKNL, ConvTrain()[6], ConvFwd, 16, 1, 700) },
		"conv/SKX":         func() trace.BatchReader { return NewConv(StyleSKX, ConvTrain()[2], ConvBwdData, 16, 2, 0) },
	}
	for name, mk := range kernels {
		scalar := mk()
		want := make([]trace.Uop, n)
		for i := range want {
			want[i], _ = scalar.Next()
		}
		for _, bs := range []int{1, 7, 256} {
			k := mk()
			buf := make([]trace.Uop, bs)
			for got := 0; got < n; {
				m := k.ReadBatch(buf)
				if m != bs {
					t.Fatalf("%s: ReadBatch = %d, want %d (kernels never end)", name, m, bs)
				}
				for i := 0; i < m && got < n; i, got = i+1, got+1 {
					if buf[i] != want[got] {
						t.Fatalf("%s batch=%d: uop %d differs:\nscalar %+v\nbatch  %+v", name, bs, got, want[got], buf[i])
					}
				}
			}
		}
	}
}
