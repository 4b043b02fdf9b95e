package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"
)

// Multi-replica mode: a fleet of dprofd replicas consistent-hashes every
// content address onto one owning replica, so the owner's in-process
// singleflight becomes a fleet-wide one (the package comment has the
// request path). On a cold miss the owner first adopts the stored document
// from another replica's store (GET /object/{addr}), so a replica that
// joined or moved on the ring re-homes old objects instead of re-running
// them. Every peer interaction fails soft: a dead or draining peer means
// the local replica runs the job itself, trading strict exactly-once for
// availability.

const (
	// routedHeader marks a request already forwarded by a replica: the
	// receiver must handle it locally, never re-route.
	routedHeader = "X-DProf-Routed"
	// replicaHeader reports which replica produced a routed response.
	replicaHeader = "X-DProf-Replica"

	// vnodesPerReplica smooths the ring: more virtual nodes, more even
	// key spread across replicas.
	vnodesPerReplica = 64

	// peerObjectTimeout bounds a stored-document fetch; /object never
	// simulates, so a healthy peer answers in milliseconds.
	peerObjectTimeout = 3 * time.Second

	// maxPeerBody caps what a replica will read from a peer response.
	maxPeerBody = 64 << 20
)

type vnode struct {
	hash uint64
	url  string
}

// peerSet is a consistent-hash ring over the replica fleet.
type peerSet struct {
	self   string
	all    []string // every replica, self included, normalized
	others []string // every replica but self
	ring   []vnode  // sorted by hash
	client *http.Client
}

// hash64 places vnodes and content addresses on the ring: the first 8
// bytes of a SHA-256. A replica's vnode names differ only in a short
// suffix, and a weakly mixed hash (FNV-1a) clusters them, leaving some
// fleets with a replica that owns almost nothing.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// normalizeReplica validates one replica URL and strips the trailing
// slash so ring membership comparisons are exact.
func normalizeReplica(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("replica %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("replica %q: want http(s)://host[:port]", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// newPeerSet builds the ring. self is added to replicas if absent, so
// "-peers" can list either the whole fleet or just the others.
func newPeerSet(self string, replicas []string) (*peerSet, error) {
	selfURL, err := normalizeReplica(self)
	if err != nil {
		return nil, fmt.Errorf("serve: self %w", err)
	}
	p := &peerSet{self: selfURL, client: &http.Client{}}
	seen := map[string]bool{}
	for _, r := range append(slices.Clone(replicas), self) {
		u, err := normalizeReplica(r)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if seen[u] {
			continue
		}
		seen[u] = true
		p.all = append(p.all, u)
		if u != selfURL {
			p.others = append(p.others, u)
		}
		for i := 0; i < vnodesPerReplica; i++ {
			p.ring = append(p.ring, vnode{hash: hash64(fmt.Sprintf("%s#%d", u, i)), url: u})
		}
	}
	slices.Sort(p.all)
	slices.Sort(p.others)
	sort.Slice(p.ring, func(i, j int) bool {
		if p.ring[i].hash != p.ring[j].hash {
			return p.ring[i].hash < p.ring[j].hash
		}
		return p.ring[i].url < p.ring[j].url
	})
	return p, nil
}

// owner maps a content address onto the replica that owns it: the first
// virtual node at or past the address hash, wrapping at the top.
func (p *peerSet) owner(addr string) string {
	h := hash64(addr)
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	if i == len(p.ring) {
		i = 0
	}
	return p.ring[i].url
}

// SetPeers switches the server into multi-replica mode: self is this
// replica's URL as its peers reach it, replicas the fleet (self included
// or not — it is added). Call before serving traffic.
func (s *Server) SetPeers(self string, replicas []string) error {
	p, err := newPeerSet(self, replicas)
	if err != nil {
		return err
	}
	s.peers = p
	return nil
}

// routeOwner decides whether a request for addr belongs to another
// replica: multi-replica mode is on, the request did not already arrive
// routed, and the content address hashes to another replica.
func (s *Server) routeOwner(routed bool, addr string) (string, bool) {
	if s.peers == nil || routed {
		return "", false
	}
	owner := s.peers.owner(addr)
	if owner == s.peers.self {
		return "", false
	}
	return owner, true
}

// proxy is the flight body that forwards a job to its owning replica, so a
// burst of identical requests on a non-owner costs one upstream call,
// detached from any one client. The owner's bytes land in the local LRU:
// repeats on this replica never leave the process. Any upstream failure is
// returned for the caller to fall back on running the job locally.
func (s *Server) proxy(owner string, j job) func(src *string) ([]byte, error) {
	return func(src *string) ([]byte, error) {
		if b, ok := s.lookup(j.addr); ok {
			*src = "hit"
			return b, nil
		}
		method, uri, body := j.request()
		b, hdr, err := s.peerDo(s.ctx, method, owner+uri, body)
		if err != nil {
			return nil, fmt.Errorf("peer %s: %w", owner, err)
		}
		s.peerProxied.Add(1)
		s.cache.put(j.addr, b, nil)
		*src = "proxy"
		if d := hdr.Get("X-DProf-Cache"); d != "" {
			*src = "proxy:" + d
		}
		return b, nil
	}
}

// peerDo sends one routed request to a peer and returns the response body,
// without its trailing newline, and headers. Any status but 200 is an
// error.
func (s *Server) peerDo(ctx context.Context, method, url string, body []byte) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set(routedHeader, "1")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.peers.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return bytes.TrimSuffix(b, []byte("\n")), resp.Header, nil
}

// peerObject asks the other replicas for an already-stored document —
// LRU or disk only, never a simulation — and adopts a hit into the local
// cache and store. It runs on the owner-side miss path, so a fleet whose
// ring membership changed serves relocated objects at network speed
// instead of re-simulating them.
func (s *Server) peerObject(addr string) ([]byte, bool) {
	if s.peers == nil {
		return nil, false
	}
	for _, peer := range s.peers.others {
		ctx, cancel := context.WithTimeout(s.ctx, peerObjectTimeout)
		body, _, err := s.peerDo(ctx, http.MethodGet, peer+"/object/"+addr, nil)
		cancel()
		if err == nil && len(body) > 0 {
			s.peerFetches.Add(1)
			s.adopt(addr, body)
			return body, true
		}
	}
	return nil, false
}

// handleObject serves GET /object/{addr...}: the stored document for a
// content address if this replica already has it (LRU or disk), 404
// otherwise. It never computes and never re-routes, so peer fetches
// cannot recurse or deadlock across the fleet.
func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	body, from, ok := s.stored(addr)
	if !ok {
		writeStatus(w, http.StatusNotFound, "object not stored: "+addr)
		return
	}
	s.objectsServed.Add(1)
	writeBody(w, body, from)
}
