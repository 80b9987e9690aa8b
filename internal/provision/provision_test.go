package provision

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dosgi/internal/manifest"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/remote"
	"dosgi/internal/security"
	"dosgi/internal/services"
	"dosgi/internal/sim"
)

func sampleArtifact(t *testing.T, chunkSize int64) (Artifact, []byte) {
	t.Helper()
	img := SampleImages()[SampleGreetLibLocation]
	art, payload, err := NewArtifact(SampleGreetLibLocation, img,
		SampleSigner, SampleKeyring()[SampleSigner], chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	return art, payload
}

func TestImageRoundTripAndDigest(t *testing.T) {
	art, payload := sampleArtifact(t, 0)
	if art.ChunkSize != DefaultChunkSize {
		t.Fatalf("default chunk size = %d", art.ChunkSize)
	}
	if art.Size != int64(len(payload)) || art.Chunks != 1 {
		t.Fatalf("size=%d chunks=%d", art.Size, art.Chunks)
	}
	if art.SymbolicName != "com.example.greetlib" || art.Version != "1.2.0" {
		t.Fatalf("coordinates = %s/%s", art.SymbolicName, art.Version)
	}
	img, err := DecodeImage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if img.Classes["com.example.greetlib.Greeting"] != "hello, %s!" {
		t.Fatalf("classes = %v", img.Classes)
	}
	// Deterministic encoding: same image, same digest.
	_, payload2 := sampleArtifact(t, 0)
	if !bytes.Equal(payload, payload2) {
		t.Fatal("image encoding is not deterministic")
	}
}

func TestStoreChunkingRoundTrip(t *testing.T) {
	art, payload := sampleArtifact(t, 16)
	s := NewStore()
	if err := s.Add(art, payload); err != nil {
		t.Fatal(err)
	}
	if !s.Has(art.Digest) {
		t.Fatal("store lost the artifact")
	}
	var assembled []byte
	for i := int64(0); i < art.Chunks; i++ {
		chunk, ok := s.Chunk(art.Digest, i)
		if !ok {
			t.Fatalf("missing chunk %d", i)
		}
		if int64(len(chunk)) > art.ChunkSize {
			t.Fatalf("chunk %d oversized: %d", i, len(chunk))
		}
		// A chunk is a view of the stored payload: an append must
		// reallocate, never write into the next chunk.
		if cap(chunk) != len(chunk) {
			t.Fatalf("chunk %d view has cap %d > len %d", i, cap(chunk), len(chunk))
		}
		assembled = append(assembled, chunk...)
	}
	if !bytes.Equal(assembled, payload) {
		t.Fatal("chunks do not reassemble the payload")
	}
	if _, ok := s.Chunk(art.Digest, art.Chunks); ok {
		t.Fatal("out-of-range chunk served")
	}
	got, ok := s.Payload(art.Digest)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("payload round trip failed")
	}

	// Tampered payloads never enter the store.
	bad := append([]byte(nil), payload...)
	bad[0] ^= 1
	if err := s.Add(art, bad); !errors.Is(err, ErrVerification) {
		t.Fatalf("tampered Add = %v", err)
	}
}

// TestStoreCorruptChunkIsCopyOnWrite: views handed out before a
// CorruptChunk keep their bytes (the stored payload is replaced, never
// written), and readers racing the corruption are clean under -race.
func TestStoreCorruptChunkIsCopyOnWrite(t *testing.T) {
	art, payload := sampleArtifact(t, 16)
	s := NewStore()
	if err := s.Add(art, payload); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Chunk(art.Digest, 1)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				for i := int64(0); i < art.Chunks; i++ {
					// Every byte but the one being flipped always reads
					// as published.
					chunk, _ := s.Chunk(art.Digest, i)
					if !bytes.Equal(chunk[1:], payload[i*16+1:i*16+int64(len(chunk))]) {
						t.Errorf("chunk %d read torn bytes", i)
						return
					}
				}
			}
		}()
	}
	for n := 0; n < 51; n++ {
		if !s.CorruptChunk(art.Digest, 1) {
			t.Error("CorruptChunk refused a stored chunk")
		}
	}
	wg.Wait()
	if !bytes.Equal(before, payload[16:32]) {
		t.Fatal("CorruptChunk wrote through a view handed out earlier")
	}
	// An odd number of flips leaves exactly that byte flipped.
	if after, _ := s.Chunk(art.Digest, 1); after[0] != payload[16]^0xff {
		t.Fatal("CorruptChunk did not flip the chunk's first byte")
	}
}

func TestStoreFindBundle(t *testing.T) {
	s := NewStore()
	key := SampleKeyring()[SampleSigner]
	for _, v := range []string{"1.0.0", "1.4.0", "2.0.0"} {
		img := &BundleImage{ManifestText: "Bundle-SymbolicName: lib\nBundle-Version: " + v + "\n"}
		art, payload, err := NewArtifact("app:lib-"+v, img, SampleSigner, key, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(art, payload); err != nil {
			t.Fatal(err)
		}
	}
	art, ok := s.FindBundle("lib", manifest.MustParseVersionRange("[1.0,2.0)"))
	if !ok || art.Version != "1.4.0" {
		t.Fatalf("FindBundle picked %v (ok=%v), want 1.4.0", art.Version, ok)
	}
	if _, ok := s.FindBundle("lib", manifest.MustParseVersionRange("[3.0,4.0)")); ok {
		t.Fatal("FindBundle matched an impossible range")
	}
	if _, ok := s.FindBundle("ghost", manifest.AnyVersion); ok {
		t.Fatal("FindBundle matched an unknown bundle")
	}
}

func TestVerifierGates(t *testing.T) {
	art, payload := sampleArtifact(t, 0)
	keyring := SampleKeyring()

	t.Run("ok", func(t *testing.T) {
		if err := NewVerifier(keyring, nil).Verify(art, payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("corrupt-payload", func(t *testing.T) {
		bad := append([]byte(nil), payload...)
		bad[3] ^= 0x40
		if err := NewVerifier(keyring, nil).Verify(art, bad); !errors.Is(err, ErrVerification) {
			t.Fatalf("got %v", err)
		}
	})
	// A fetched payload is proven by comparison with the Fetcher's hashed
	// copy; one changed after the fetch must fail like any other. Each
	// mutation is checked against the real metadata and against metadata
	// whose size matches the mutated payload, so the digest check runs.
	t.Run("fetched-then-mutated", func(t *testing.T) {
		v := NewVerifier(keyring, nil)
		for name, mutate := range map[string]func([]byte) []byte{
			"flip one byte": func(p []byte) []byte { p[len(p)/2] ^= 1; return p },
			"truncate":      func(p []byte) []byte { return p[:len(p)-1] },
			"append":        func(p []byte) []byte { return append(p, '}') },
		} {
			art, payload := freshArtifact(t, 8)
			holder := NewStore()
			if err := holder.Add(art, payload); err != nil {
				t.Fatal(err)
			}
			fetched := fetchNow(t, newInprocFetcher(holder), art)
			if _, ok := proven.lookup(art.Digest); !ok {
				t.Fatal("the fetch filed no proven copy")
			}
			if v.Verify(art, fetched) != nil || NewStore().Add(art, fetched) != nil {
				t.Fatal("an unmodified fetched payload was rejected")
			}
			mutated := mutate(fetched)
			sized := art
			sized.Size = int64(len(mutated))
			for _, meta := range []Artifact{art, sized} {
				if err := v.Verify(meta, mutated); !errors.Is(err, ErrVerification) {
					t.Errorf("%s, size %d: Verify = %v", name, meta.Size, err)
				}
				if err := NewStore().Add(meta, mutated); !errors.Is(err, ErrVerification) {
					t.Errorf("%s, size %d: Store.Add = %v", name, meta.Size, err)
				}
			}
		}
	})
	t.Run("digest-before-signature", func(t *testing.T) {
		bad := append([]byte(nil), payload...)
		bad[3] ^= 0x40
		forged := art
		forged.Signature = Sign([]byte("wrong-key"), art.Signer, art.Digest)
		err := NewVerifier(keyring, nil).Verify(forged, bad)
		if !errors.Is(err, ErrVerification) || !strings.Contains(err.Error(), "digest mismatch") {
			t.Fatalf("got %v, want the digest mismatch", err)
		}
	})
	t.Run("forged-signature", func(t *testing.T) {
		forged := art
		forged.Signature = Sign([]byte("wrong-key"), art.Signer, art.Digest)
		if err := NewVerifier(keyring, nil).Verify(forged, payload); !errors.Is(err, ErrVerification) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("unknown-signer", func(t *testing.T) {
		alien := art
		alien.Signer = "nobody"
		if err := NewVerifier(keyring, nil).Verify(alien, payload); !errors.Is(err, ErrVerification) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("policy-denied", func(t *testing.T) {
		policy := security.NewPolicy(false) // deny everything
		err := NewVerifier(keyring, policy).Verify(art, payload)
		if !errors.Is(err, ErrVerification) {
			t.Fatalf("got %v", err)
		}
		var denied *security.AccessDeniedError
		if !errors.As(err, &denied) {
			t.Fatalf("cause = %v", err)
		}
	})
	t.Run("policy-granted", func(t *testing.T) {
		policy := security.NewPolicy(false)
		policy.Grant(SampleSigner, DeployPermission("app:*"))
		if err := NewVerifier(keyring, policy).Verify(art, payload); err != nil {
			t.Fatal(err)
		}
	})
}

// repoHandler serves a RepoService over a transport without a framework:
// the reflection dispatch is the same one the real Dispatcher uses.
type repoHandler struct {
	svc       *RepoService
	served    *int   // Chunk requests answered
	shortFrom *int64 // chunks from this index on are answered one byte short
}

func (h repoHandler) Serve(req *remote.Request) *remote.Response {
	if req.Method == "Chunk" {
		*h.served++
	}
	results, err := remote.InvokeService(h.svc, req.Method, req.Args)
	if err != nil {
		return &remote.Response{Corr: req.Corr, Status: remote.StatusAppError, Err: err.Error()}
	}
	if req.Method == "Chunk" && req.Args[1].(int64) >= *h.shortFrom {
		chunk := results[0].([]byte)
		results[0] = chunk[:len(chunk)-1]
	}
	return &remote.Response{Corr: req.Corr, Status: remote.StatusOK, Results: results}
}

// fetchRig is a netsim client plus n repository servers.
type fetchRig struct {
	eng     *sim.Engine
	servers []*remote.NetsimServer
	stores  []*Store
	served  []int
	// shortFrom[i] makes server i answer chunks from that index on one
	// byte short (never, by default).
	shortFrom []int64
	fetcher   *Fetcher
	eps       []remote.Endpoint
}

func newFetchRig(t *testing.T, nServers int, counters *services.ProvisionCounters) *fetchRig {
	t.Helper()
	rig := &fetchRig{eng: sim.New(99), served: make([]int, nServers), shortFrom: make([]int64, nServers)}
	net := netsim.NewNetwork(rig.eng)
	for i := 0; i < nServers; i++ {
		rig.shortFrom[i] = math.MaxInt64
		id := fmt.Sprintf("srv%d", i+1)
		ip := netsim.IP(fmt.Sprintf("10.0.0.%d", i+1))
		nic := net.AttachNode(id)
		if err := net.AssignIP(ip, id); err != nil {
			t.Fatal(err)
		}
		store := NewStore()
		srv := remote.NewNetsimServer(nic, netsim.Addr{IP: ip, Port: 7100},
			repoHandler{svc: NewRepoService(store), served: &rig.served[i], shortFrom: &rig.shortFrom[i]})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		rig.servers = append(rig.servers, srv)
		rig.stores = append(rig.stores, store)
		rig.eps = append(rig.eps, remote.Endpoint{Node: id, Addr: string(ip) + ":7100"})
	}
	clientNIC := net.AttachNode("client")
	if err := net.AssignIP("10.0.0.100", "client"); err != nil {
		t.Fatal(err)
	}
	transport := remote.NewNetsimTransport(rig.eng, clientNIC, "10.0.0.100",
		remote.WithNetsimCallTimeout(20*time.Millisecond))
	opts := []FetcherOption{}
	if counters != nil {
		opts = append(opts, WithCounters(counters))
	}
	rig.fetcher = NewFetcher(remote.NewPool(transport), StaticReplicas{Eps: rig.eps}, opts...)
	return rig
}

func TestFetcherMidTransferFailover(t *testing.T) {
	counters := &services.ProvisionCounters{}
	rig := newFetchRig(t, 3, counters)

	// A multi-chunk artifact held by every server; server 1 answers its
	// chunks one byte short from chunk 3 on.
	art, payload := sampleArtifact(t, 8)
	if art.Chunks < 16 {
		t.Fatalf("want a long transfer, got %d chunks", art.Chunks)
	}
	for _, s := range rig.stores {
		if err := s.Add(art, payload); err != nil {
			t.Fatal(err)
		}
	}
	rig.shortFrom[0] = 3

	var got []byte
	var fetchErr error
	done := false
	rig.fetcher.Fetch(art, func(p []byte, err error) { got, fetchErr, done = p, err, true })

	// Server 1's first wrong-length chunk moves the fetch to server 2 at
	// once — not after a full transfer and a digest mismatch — keeping
	// chunks 0–2. Then kill server 2 mid-transfer: its in-flight chunk
	// requests time out and the fetch resumes — not restarts — on server 3.
	for step := 0; rig.served[1] == 0 && step < 200; step++ {
		rig.eng.RunFor(100 * time.Microsecond)
	}
	if rig.served[1] == 0 || done {
		t.Fatalf("transfer not mid-flight on server 2: served=%v done=%v", rig.served, done)
	}
	if int64(rig.served[0]) >= art.Chunks {
		t.Fatalf("the short-chunk server was asked for %d of %d chunks — it was not skipped at once",
			rig.served[0], art.Chunks)
	}
	rig.servers[1].Stop()
	rig.eng.RunFor(time.Second)

	if !done || fetchErr != nil {
		t.Fatalf("fetch after failover: done=%v err=%v", done, fetchErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across failover")
	}
	if counters.FetchRetries.Load() != 2 {
		t.Fatalf("fetchRetries = %d, want 2", counters.FetchRetries.Load())
	}
	if counters.VerificationRejections.Load() != 0 {
		t.Fatalf("rejections = %d: a wrong-length chunk is a replica failure, not a digest mismatch",
			counters.VerificationRejections.Load())
	}
	// Resume, not restart: server 3 served only the chunks servers 1 and
	// 2 had not completed, and every byte was transferred exactly once.
	if int64(rig.served[2]) >= art.Chunks {
		t.Fatalf("server 3 served %d of %d chunks — the transfer restarted",
			rig.served[2], art.Chunks)
	}
	if total := counters.BytesTransferred.Load(); total != art.Size {
		t.Fatalf("bytesTransferred = %d, want exactly the payload size %d", total, art.Size)
	}
}

// heldCalls is a transport (and its one connection) that holds every call
// until the test completes it, in whatever order the test likes.
type heldCalls struct {
	reqs []*remote.Request
	cbs  []func(*remote.Response, error)
}

func (h *heldCalls) Dial(string) (remote.Conn, error) { return h, nil }
func (h *heldCalls) Call(req *remote.Request, cb func(*remote.Response, error)) error {
	h.reqs, h.cbs = append(h.reqs, req), append(h.cbs, cb)
	return nil
}
func (h *heldCalls) InFlight() int { return 0 }
func (h *heldCalls) Addr() string  { return "held:1" }
func (h *heldCalls) Close() error  { return nil }

// TestFetcherAssemblesResponsesInAnyOrder: chunk responses may complete in
// any order (TCP completes each on its own goroutine); each lands at its
// own offset and the running digest follows the in-order prefix, so the
// payload and the digest verdict are those of an in-order transfer.
func TestFetcherAssemblesResponsesInAnyOrder(t *testing.T) {
	art, payload := sampleArtifact(t, 8)
	store := NewStore()
	if err := store.Add(art, payload); err != nil {
		t.Fatal(err)
	}
	n := int(art.Chunks)
	inOrder, reversed := make([]int, n), make([]int, n)
	for i := range inOrder {
		inOrder[i], reversed[i] = i, n-1-i
	}
	for name, order := range map[string][]int{
		"in order": inOrder,
		"reversed": reversed, // the whole hash waits for the last response
		"shuffled": rand.New(rand.NewSource(7)).Perm(n),
	} {
		held := &heldCalls{}
		pool := remote.NewPool(held, remote.WithMaxConnsPerEndpoint(1), remote.WithMaxInFlight(n))
		f := NewFetcher(pool, StaticReplicas{Eps: []remote.Endpoint{{Addr: held.Addr()}}}, WithFetchWindow(n))
		var got []byte
		var fetchErr error
		f.Fetch(art, func(p []byte, err error) { got, fetchErr = p, err })
		if len(held.cbs) != n {
			t.Fatalf("%s: %d chunk requests in flight, want all %d", name, len(held.cbs), n)
		}
		for _, i := range order {
			chunk, _ := store.Chunk(art.Digest, held.reqs[i].Args[1].(int64))
			held.cbs[i](&remote.Response{Status: remote.StatusOK, Results: []any{chunk}}, nil)
		}
		if fetchErr != nil || !bytes.Equal(got, payload) || PayloadDigest(got) != art.Digest {
			t.Fatalf("%s: fetch = %d bytes, err %v", name, len(got), fetchErr)
		}
	}
}

// TestFetchRejectsImpossibleGeometry: artifact metadata arrives from the
// network, so numbers that would size an allocation are checked first —
// no replica is asked and nothing is allocated on their strength.
func TestFetchRejectsImpossibleGeometry(t *testing.T) {
	good, _ := sampleArtifact(t, 8)
	for name, mangle := range map[string]func(*Artifact){
		"zero chunk size":     func(a *Artifact) { a.ChunkSize = 0 },
		"negative chunk size": func(a *Artifact) { a.ChunkSize = -8 },
		"chunk above half a frame": func(a *Artifact) {
			a.ChunkSize = remote.MaxFrameSize/2 + 1
			a.Chunks = 1
		},
		"one chunk too many": func(a *Artifact) { a.Chunks++ },
		"one chunk too few":  func(a *Artifact) { a.Chunks-- },
		"allocation bomb":    func(a *Artifact) { a.Chunks = 1 << 40 },
		"size above MaxArtifactSize": func(a *Artifact) {
			a.Size = MaxArtifactSize + 1
			a.Chunks = chunkCount(a.Size, a.ChunkSize)
		},
		"negative size": func(a *Artifact) { a.Size = -1 },
	} {
		art := good
		mangle(&art)
		f := NewFetcher(remote.NewPool(nil), unaskedReplicas{t})
		called := false
		f.Fetch(art, func(p []byte, err error) {
			called = true
			if p != nil || !errors.Is(err, ErrVerification) {
				t.Errorf("%s: fetch = %d bytes, %v; want ErrVerification", name, len(p), err)
			}
		})
		if !called {
			t.Errorf("%s: callback never fired", name)
		}
	}
}

// unaskedReplicas fails the test if a fetch gets as far as resolving
// replicas.
type unaskedReplicas struct{ t *testing.T }

func (u unaskedReplicas) Replicas(string) []remote.Endpoint {
	u.t.Error("replicas resolved for metadata that should have been rejected")
	return nil
}

func TestFetcherCorruptReplicaFallsBack(t *testing.T) {
	counters := &services.ProvisionCounters{}
	rig := newFetchRig(t, 2, counters)
	art, payload := sampleArtifact(t, 8)
	for _, s := range rig.stores {
		if err := s.Add(art, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !rig.stores[0].CorruptChunk(art.Digest, 2) {
		t.Fatal("corruption failed")
	}

	var got []byte
	var fetchErr error
	rig.fetcher.Fetch(art, func(p []byte, err error) { got, fetchErr = p, err })
	rig.eng.RunFor(time.Second)
	if fetchErr != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fetch = err %v", fetchErr)
	}
	if counters.VerificationRejections.Load() != 1 {
		t.Fatalf("rejections = %d, want 1", counters.VerificationRejections.Load())
	}
	// The mismatch discarded bytes AND hash state: server 2 re-served every
	// chunk, and the digest that accepted its payload covers only its
	// bytes (a running hash continued across the switch could never match).
	if int64(rig.served[1]) != art.Chunks {
		t.Fatalf("server 2 served %d of %d chunks after the rejection", rig.served[1], art.Chunks)
	}
	if total := counters.BytesTransferred.Load(); total != 2*art.Size {
		t.Fatalf("bytesTransferred = %d, want two full transfers (%d)", total, 2*art.Size)
	}

	// Both replicas corrupt: the fetch fails verification outright.
	rig2 := newFetchRig(t, 2, nil)
	for _, s := range rig2.stores {
		if err := s.Add(art, payload); err != nil {
			t.Fatal(err)
		}
		s.CorruptChunk(art.Digest, 0)
	}
	var finalErr error
	rig2.fetcher.Fetch(art, func(_ []byte, err error) { finalErr = err })
	rig2.eng.RunFor(time.Second)
	if !errors.Is(finalErr, ErrVerification) {
		t.Fatalf("all-corrupt fetch = %v, want ErrVerification", finalErr)
	}
}

var freshArtifacts atomic.Int64

// freshArtifact is a signed artifact no earlier fetch of this process has
// put in the proven table.
func freshArtifact(t *testing.T, chunkSize int64) (Artifact, []byte) {
	t.Helper()
	img := &BundleImage{
		ManifestText: "Bundle-SymbolicName: test.fresh\nBundle-Version: 1.0.0\n",
		DataFiles:    map[string][]byte{"nonce": []byte(fmt.Sprintf("%s/%d", t.Name(), freshArtifacts.Add(1)))},
	}
	art, payload, err := NewArtifact("test:fresh", img, SampleSigner, SampleKeyring()[SampleSigner], chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	return art, payload
}

// TestFetcherProvesOnlyHashedBytes: the copy a fetch files in the proven
// table is the payload whose digest checked out — after a corrupt
// replica's transfer was discarded and refetched elsewhere, and after a
// mid-transfer failover — never bytes the digest check rejected.
func TestFetcherProvesOnlyHashedBytes(t *testing.T) {
	for _, corrupt := range []bool{true, false} {
		rig := newFetchRig(t, 2, nil)
		art, payload := freshArtifact(t, 8)
		for _, s := range rig.stores {
			if err := s.Add(art, payload); err != nil {
				t.Fatal(err)
			}
		}
		if corrupt {
			rig.stores[0].CorruptChunk(art.Digest, 2)
		} else {
			rig.shortFrom[0] = 3
		}
		var fetchErr error
		rig.fetcher.Fetch(art, func(_ []byte, err error) { fetchErr = err })
		rig.eng.RunFor(time.Second)
		if fetchErr != nil {
			t.Fatal(fetchErr)
		}
		entry, ok := proven.lookup(art.Digest)
		if !ok || !bytes.Equal(entry, payload) {
			t.Fatalf("corrupt=%v: proven entry held=%v, equal to the payload=%v", corrupt, ok, bytes.Equal(entry, payload))
		}
		bad := append([]byte(nil), payload...)
		bad[16] ^= 0xff // what the corrupt replica served
		if err := NewVerifier(SampleKeyring(), nil).Verify(art, bad); !errors.Is(err, ErrVerification) {
			t.Fatalf("corrupt=%v: Verify of the rejected bytes = %v", corrupt, err)
		}
	}
}

func TestFetcherNoReplica(t *testing.T) {
	f := NewFetcher(remote.NewPool(nil), StaticReplicas{})
	art, _ := sampleArtifact(t, 0)
	var err error
	f.Fetch(art, func(_ []byte, e error) { err = e })
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("got %v", err)
	}
}

// localIndex satisfies Index from a store (unit tests have no directory).
type localIndex struct{ s *Store }

func (ix localIndex) ArtifactAt(loc string) (Artifact, bool) { return ix.s.ArtifactAt(loc) }
func (ix localIndex) FindBundle(name string, rng manifest.VersionRange) (Artifact, bool) {
	return ix.s.FindBundle(name, rng)
}

func TestDeployerResolvesRequireBundleClosure(t *testing.T) {
	store := NewStore()
	arts, payloads, err := SampleArtifacts(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, art := range arts {
		if err := store.Add(art, payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	defs := module.NewDefinitionRegistry()
	fw := module.New(module.WithName("unit"), module.WithDefinitions(defs))
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployer(DeployerConfig{
		Store:       store,
		Fetcher:     NewFetcher(remote.NewPool(nil), StaticReplicas{}),
		Verifier:    NewVerifier(SampleKeyring(), nil),
		Index:       localIndex{s: store},
		Definitions: defs,
		Framework:   fw,
	})
	if err != nil {
		t.Fatal(err)
	}

	var order []string
	dep.EnsureClosure(SampleGreeterLocation, func(locs []string, err error) {
		if err != nil {
			t.Fatal(err)
		}
		order = locs
	})
	if len(order) != 2 || order[0] != SampleGreetLibLocation || order[1] != SampleGreeterLocation {
		t.Fatalf("closure order = %v, want [greetlib greeter]", order)
	}

	var deployErr error
	dep.Deploy(SampleGreeterLocation, true, func(err error) { deployErr = err })
	if deployErr != nil {
		t.Fatal(deployErr)
	}
	b, ok := fw.GetBundleByLocation(SampleGreeterLocation)
	if !ok || b.State() != module.StateActive {
		t.Fatal("greeter not active")
	}
	// The activator loaded the format class through the Require-Bundle
	// wiring and registered the service.
	ref, ok := fw.SystemContext().ServiceReference("com.example.greeter.Greeter")
	if !ok {
		t.Fatal("greeter service missing")
	}
	svc, err := fw.SystemContext().GetService(ref)
	if err != nil {
		t.Fatal(err)
	}
	type helloer interface{ Hello(string) string }
	if got := svc.(helloer).Hello("unit"); !strings.Contains(got, "hello, unit!") {
		t.Fatalf("greeting = %q", got)
	}
}

func TestDeployerErrors(t *testing.T) {
	store := NewStore()
	defs := module.NewDefinitionRegistry()
	fw := module.New(module.WithDefinitions(defs))
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployer(DeployerConfig{
		Store:       store,
		Fetcher:     NewFetcher(remote.NewPool(nil), StaticReplicas{}),
		Verifier:    NewVerifier(SampleKeyring(), nil),
		Index:       localIndex{s: store},
		Definitions: defs,
		Framework:   fw,
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("unknown-location", func(t *testing.T) {
		var got error
		dep.Deploy("app:ghost", true, func(err error) { got = err })
		if !errors.Is(got, ErrUnknownArtifact) {
			t.Fatalf("got %v", got)
		}
	})
	t.Run("unresolvable-require", func(t *testing.T) {
		img := &BundleImage{ManifestText: "Bundle-SymbolicName: orphan\nBundle-Version: 1.0.0\n" +
			"Require-Bundle: com.example.nothere\n"}
		art, payload, err := NewArtifact("app:orphan", img, SampleSigner, SampleKeyring()[SampleSigner], 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Add(art, payload); err != nil {
			t.Fatal(err)
		}
		var got error
		dep.Deploy("app:orphan", true, func(err error) { got = err })
		if !errors.Is(got, ErrUnknownArtifact) || !strings.Contains(got.Error(), "com.example.nothere") {
			t.Fatalf("got %v", got)
		}
	})
	t.Run("missing-activator-factory", func(t *testing.T) {
		img := &BundleImage{ManifestText: "Bundle-SymbolicName: noact\nBundle-Version: 1.0.0\n" +
			"Bundle-Activator: com.example.unregistered.Activator\n"}
		art, payload, err := NewArtifact("app:noact", img, SampleSigner, SampleKeyring()[SampleSigner], 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Add(art, payload); err != nil {
			t.Fatal(err)
		}
		var got error
		dep.EnsureDefinition("app:noact", func(err error) { got = err })
		if got == nil || !strings.Contains(got.Error(), "no activator factory") {
			t.Fatalf("got %v", got)
		}
	})
}
