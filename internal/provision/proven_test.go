package provision

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dosgi/internal/manifest"
	"dosgi/internal/module"
	"dosgi/internal/remote"
)

// inprocRepo is an in-process transport (and its one connection) that
// answers Chunk calls from a store synchronously, on the caller's
// goroutine.
type inprocRepo struct{ svc *RepoService }

func newInprocFetcher(store *Store) *Fetcher {
	repo := inprocRepo{svc: NewRepoService(store)}
	return NewFetcher(remote.NewPool(repo), StaticReplicas{Eps: []remote.Endpoint{{Addr: repo.Addr()}}})
}

func (r inprocRepo) Dial(string) (remote.Conn, error) { return r, nil }
func (r inprocRepo) Call(req *remote.Request, cb func(*remote.Response, error)) error {
	results, err := remote.InvokeService(r.svc, req.Method, req.Args)
	if err != nil {
		cb(&remote.Response{Corr: req.Corr, Status: remote.StatusAppError, Err: err.Error()}, nil)
		return nil
	}
	cb(&remote.Response{Corr: req.Corr, Status: remote.StatusOK, Results: results}, nil)
	return nil
}
func (r inprocRepo) InFlight() int { return 0 }
func (r inprocRepo) Addr() string  { return "inproc:1" }
func (r inprocRepo) Close() error  { return nil }

// fetchWait fetches art through f and waits for the callback, which may
// fire on another caller's goroutine when the pool queues the request.
func fetchWait(f *Fetcher, art Artifact) ([]byte, error) {
	type result struct {
		payload []byte
		err     error
	}
	done := make(chan result, 1)
	f.Fetch(art, func(p []byte, err error) { done <- result{p, err} })
	r := <-done
	return r.payload, r.err
}

func fetchNow(t testing.TB, f *Fetcher, art Artifact) []byte {
	t.Helper()
	payload, err := fetchWait(f, art)
	if err != nil {
		t.Fatalf("fetch %s: %v", art.Location, err)
	}
	return payload
}

const bigArtifactCount = 24 // ~24 MiB: more than provenCapBytes holds

var bigArtifactsOnce = sync.OnceValues(func() ([]Artifact, [][]byte) {
	rng := rand.New(rand.NewSource(38))
	key := SampleKeyring()[SampleSigner]
	blob := make([]byte, 768<<10) // base64 in the image makes the payload just over 1 MiB
	arts := make([]Artifact, bigArtifactCount)
	payloads := make([][]byte, bigArtifactCount)
	for i := range arts {
		rng.Read(blob)
		img := &BundleImage{
			ManifestText: fmt.Sprintf("Bundle-SymbolicName: test.big%02d\nBundle-Version: 1.0.0\n", i),
			DataFiles:    map[string][]byte{"blob": blob},
		}
		art, payload, err := NewArtifact(fmt.Sprintf("test:big%02d", i), img, SampleSigner, key, 0)
		if err != nil {
			panic(err)
		}
		arts[i], payloads[i] = art, payload
	}
	return arts, payloads
})

// bigHolder returns bigArtifactCount signed ~1 MiB artifacts and a store
// holding them all.
func bigHolder(t testing.TB) ([]Artifact, [][]byte, *Store) {
	t.Helper()
	arts, payloads := bigArtifactsOnce()
	store := NewStore()
	for i, art := range arts {
		if err := store.Add(art, payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	return arts, payloads, store
}

// TestProvenTableStaysUnderItsCap fetches more artifacts than the table
// holds: its bytes never exceed the cap, the evictions are counted, and an
// evicted digest still verifies — by hashing.
func TestProvenTableStaysUnderItsCap(t *testing.T) {
	arts, payloads, holder := bigHolder(t)
	f := newInprocFetcher(holder)
	_, evictions0 := proven.usage()
	for _, art := range arts {
		fetchNow(t, f, art)
		if held, _ := proven.usage(); held > provenCapBytes {
			t.Fatalf("proven table holds %d bytes, cap %d", held, provenCapBytes)
		}
	}
	if _, evictions := proven.usage(); evictions <= evictions0 {
		t.Fatalf("evictions stayed at %d after fetching %d MiB", evictions, bigArtifactCount)
	}
	evicted := -1
	for i, art := range arts {
		if _, held := proven.lookup(art.Digest); !held {
			evicted = i
			break
		}
	}
	if evicted < 0 {
		t.Fatalf("all %d fetched artifacts are still held", len(arts))
	}
	passes0 := payloadHashes.Load()
	if err := NewVerifier(SampleKeyring(), nil).Verify(arts[evicted], payloads[evicted]); err != nil {
		t.Fatal(err)
	}
	if n := payloadHashes.Load() - passes0; n != 1 {
		t.Fatalf("verifying an evicted digest took %d SHA-256 passes, want 1", n)
	}
}

// TestFetchedArtifactIsHashedOnce counts SHA-256 passes: the Fetcher's
// streaming hash is the only one, whether the caller verifies and stores
// the payload itself or the Deployer does it all and registers the bundle.
func TestFetchedArtifactIsHashedOnce(t *testing.T) {
	t.Run("fetch-verify-store", func(t *testing.T) {
		arts, _, holder := bigHolder(t)
		f := newInprocFetcher(holder)
		v := NewVerifier(SampleKeyring(), nil)
		store := NewStore()
		passes0 := payloadHashes.Load()
		for _, art := range arts {
			payload := fetchNow(t, f, art)
			if err := v.Verify(art, payload); err != nil {
				t.Fatal(err)
			}
			if err := store.Add(art, payload); err != nil {
				t.Fatal(err)
			}
		}
		if n := payloadHashes.Load() - passes0; n != int64(len(arts)) {
			t.Fatalf("%d SHA-256 passes for %d fetched artifacts, want one each", n, len(arts))
		}
	})
	t.Run("deploy", func(t *testing.T) {
		holder := NewStore()
		arts, payloads, err := SampleArtifacts(64)
		if err != nil {
			t.Fatal(err)
		}
		for i, art := range arts {
			if err := holder.Add(art, payloads[i]); err != nil {
				t.Fatal(err)
			}
		}
		dep, defs := newTestDeployer(t, holder)
		passes0 := payloadHashes.Load()
		var deployErr error
		dep.Deploy(SampleGreeterLocation, true, func(err error) { deployErr = err })
		if deployErr != nil {
			t.Fatal(deployErr)
		}
		if len(defs.Locations()) != len(arts) {
			t.Fatalf("registered %v, want both samples", defs.Locations())
		}
		if n := payloadHashes.Load() - passes0; n != int64(len(arts)) {
			t.Fatalf("%d SHA-256 passes deploying %d fetched artifacts, want one each", n, len(arts))
		}
	})
}

// newTestDeployer builds a deployer with an empty local store that fetches
// from holder and resolves through holder's index.
func newTestDeployer(t *testing.T, holder *Store) (*Deployer, *module.DefinitionRegistry) {
	t.Helper()
	defs := module.NewDefinitionRegistry()
	fw := module.New(module.WithName("unit"), module.WithDefinitions(defs))
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployer(DeployerConfig{
		Store:       NewStore(),
		Fetcher:     newInprocFetcher(holder),
		Verifier:    NewVerifier(SampleKeyring(), nil),
		Index:       localIndex{s: holder},
		Definitions: defs,
		Framework:   fw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep, defs
}

// TestDeployGateOrder: the digest is checked before the signature, and
// both before the manifest is parsed (Parrend & Frénot's order). Each
// payload here carries a manifest that cannot be parsed, so an artifact
// that got as far as the parse would fail with a manifest error instead.
func TestDeployGateOrder(t *testing.T) {
	payload, err := (&BundleImage{ManifestText: "Bundle-Version: 1.0.0\n"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	img, err := DecodeImage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := manifest.Parse(img.ManifestText); err == nil {
		t.Fatal("the test manifest parses")
	}
	key := SampleKeyring()[SampleSigner]
	unparseable := func(location string) Artifact {
		digest := PayloadDigest(payload)
		return Artifact{
			Digest: digest, Location: location, SymbolicName: "test.unparseable", Version: "1.0.0",
			Size: int64(len(payload)), ChunkSize: 8, Chunks: chunkCount(int64(len(payload)), 8),
			Signer: SampleSigner, Signature: Sign(key, SampleSigner, digest),
		}
	}
	for _, tc := range []struct {
		name  string
		prep  func(holder *Store, art *Artifact)
		fails string
	}{
		{"wrong digest", func(holder *Store, art *Artifact) {
			if !holder.CorruptChunk(art.Digest, 3) {
				t.Fatal("corruption failed")
			}
		}, "corrupt payload"},
		{"forged signature", func(holder *Store, art *Artifact) {
			art.Signature = Sign([]byte("wrong-key"), art.Signer, art.Digest)
			if err := holder.Add(*art, payload); err != nil {
				t.Fatal(err)
			}
		}, "bad signature"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			art := unparseable("test:" + strings.ReplaceAll(tc.name, " ", "-"))
			holder := NewStore()
			if err := holder.Add(art, payload); err != nil {
				t.Fatal(err)
			}
			tc.prep(holder, &art)
			dep, defs := newTestDeployer(t, holder)
			var got error
			dep.Deploy(art.Location, true, func(err error) { got = err })
			if !errors.Is(got, ErrVerification) || !strings.Contains(got.Error(), tc.fails) {
				t.Fatalf("deploy = %v, want ErrVerification on %q", got, tc.fails)
			}
			if _, ok := defs.Get(art.Location); ok {
				t.Fatal("a rejected artifact was registered")
			}
		})
	}
}

// TestProvenTableConcurrentUse races fetches, verifies, stores and
// evictions on the shared table (run it under -race); every payload
// mutated after its fetch is still rejected.
func TestProvenTableConcurrentUse(t *testing.T) {
	arts, _, holder := bigHolder(t)
	f := newInprocFetcher(holder)
	v := NewVerifier(SampleKeyring(), nil)
	store := NewStore()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(arts)+w; i++ {
				art := arts[i%len(arts)]
				payload, fetchErr := fetchWait(f, art)
				if fetchErr != nil {
					t.Errorf("fetch %s: %v", art.Location, fetchErr)
					return
				}
				if err := v.Verify(art, payload); err != nil {
					t.Error(err)
					return
				}
				if err := store.Add(art, payload); err != nil {
					t.Error(err)
					return
				}
				payload[len(payload)/2] ^= 1
				if err := v.Verify(art, payload); !errors.Is(err, ErrVerification) {
					t.Errorf("%s mutated after fetch: Verify = %v", art.Location, err)
				}
				if err := store.Add(art, payload); !errors.Is(err, ErrVerification) {
					t.Errorf("%s mutated after fetch: Store.Add = %v", art.Location, err)
				}
			}
		}()
	}
	wg.Wait()
	if held, _ := proven.usage(); held > provenCapBytes {
		t.Fatalf("proven table holds %d bytes, cap %d", held, provenCapBytes)
	}
	// The store kept proven copies, not the payloads the workers mutated.
	for _, art := range arts {
		got, ok := store.Payload(art.Digest)
		if !ok || PayloadDigest(got) != art.Digest {
			t.Fatalf("stored payload of %s does not hash to its digest", art.Location)
		}
	}
}

// BenchmarkFetchVerify is artifact_fetch's client path plus the deployer's
// store step, in process: Fetch, Verify and Store.Add of ~1 MiB artifacts,
// cycling through more of them than the proven table holds so every fetch
// records a fresh entry. sha256_passes/op counts full passes over payloads.
func BenchmarkFetchVerify(b *testing.B) {
	arts, _, holder := bigHolder(b)
	f := newInprocFetcher(holder)
	v := NewVerifier(SampleKeyring(), nil)
	store := NewStore()
	b.ReportAllocs()
	b.SetBytes(arts[0].Size)
	b.ResetTimer()
	passes0 := payloadHashes.Load()
	for i := 0; i < b.N; i++ {
		art := arts[i%len(arts)]
		payload := fetchNow(b, f, art)
		if err := v.Verify(art, payload); err != nil {
			b.Fatal(err)
		}
		if err := store.Add(art, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(payloadHashes.Load()-passes0)/float64(b.N), "sha256_passes/op")
}

// usage returns the bytes charged to the entries held and the evictions
// so far.
func (t *provenTable) usage() (held, evictions int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes, t.evictions
}
