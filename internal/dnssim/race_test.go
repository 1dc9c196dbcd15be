package dnssim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pdns"
	"repro/internal/providers"
)

// TestResolverConcurrent exercises every mutable path of the resolver from
// many goroutines at once — cold lookup-cache misses, hot hits, deletion
// writes and deletion checks interleaved, sessions closing into shared
// counters, and racing first fills of one region's node-table slots — so
// `go test -race` covers the exact access pattern of the parallel emission
// workers. Each goroutine owns its RNG, mirroring
// workload.EmitPDNSParallelBatch.
func TestResolverConcurrent(t *testing.T) {
	r := NewResolver()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("1234567890-abcdefgh%02d-ap-guangzhou.scf.tencentcs.com", i)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				fqdn := names[(g+i)%len(names)]
				if i%50 == 25 && g%4 == 0 {
					r.MarkDeleted(fqdn)
				}
				if _, err := r.Resolve(fqdn, rng); err != nil && !errors.Is(err, ErrNXDomain) {
					t.Errorf("Resolve(%q): %v", fqdn, err)
					return
				}
				s := r.Session(fqdn)
				for q := 0; q < 3; q++ {
					if _, err := s.ResolveRType(pdns.TypeA, rng); err != nil && !errors.Is(err, ErrNXDomain) {
						t.Errorf("Session(%q).ResolveRType: %v", fqdn, err)
						s.Close()
						return
					}
				}
				s.Close()
				r.Deleted(fqdn)
			}
		}(g)
	}
	wg.Wait()

	t.Run("first-fill", func(t *testing.T) {
		// Sessions on names of one AWS region, started together on a fresh
		// resolver: every slot of the region's two tables is first filled
		// while other goroutines read and fill its neighbours. Each
		// goroutine's answers must equal a serial replay of its stream.
		const fillers = 4
		in := providers.Get(providers.AWS)
		fqdns := make([]string, fillers)
		gen := rand.New(rand.NewSource(9))
		for g := range fqdns {
			fqdns[g] = in.Generate(gen, "ap-northeast-1")
		}
		query := func(r *Resolver, g int, out []Answer) error {
			rng := rand.New(rand.NewSource(int64(100 + g)))
			s := r.Session(fqdns[g])
			defer s.Close()
			for i := range out {
				rt := pdns.TypeA
				if i%3 == 2 {
					rt = pdns.TypeAAAA
				}
				a, err := s.ResolveRType(rt, rng)
				if err != nil {
					return err
				}
				out[i] = a
			}
			return nil
		}
		racing := NewResolver()
		got := make([][]Answer, fillers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < fillers; g++ {
			got[g] = make([]Answer, 3000)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if err := query(racing, g, got[g]); err != nil {
					t.Error(err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		serial := NewResolver()
		want := make([]Answer, 3000)
		for g := 0; g < fillers; g++ {
			if err := query(serial, g, want); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[g][i] != want[i] {
					t.Fatalf("goroutine %d query %d: %+v, serial replay %+v", g, i, got[g][i], want[i])
				}
			}
		}
	})
}
