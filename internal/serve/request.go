package serve

import (
	"context"
	"crypto/sha256"
	"net/http"
)

// job is one cacheable request after its handler decoded and normalized
// it: everything the one request path needs to answer it.
type job struct {
	addr string // the content address
	// request rebuilds what a non-owner forwards to the owner: a method, a
	// URI built from the normalized key (never the client's raw query) and
	// a body. It is called only when the job is forwarded; nil means the job
	// always runs where it lands (a diff: its sides are forwarded instead).
	request func() (method, uri string, body []byte)
	doc     bool // the body is a core.ProfileDocument: pprof negotiation applies
	streams bool // ?stream= answers with live events
	// workload, when set, opens a stream that runs with an "accepted" event
	// naming the address and this workload (profiles only).
	workload string
	// run computes the body. emit, non-nil only for a stream, relays the
	// run's live events without ever blocking it.
	run func(emit func(event string, data any)) ([]byte, error)
}

// answerRequest is the front half of every handler whose JSON body alone
// names its answer (/profile and /diff). A byte-identical repeat of a
// request this server already resolved is answered by its spelling, an
// alias over route and body kept on the LRU entry it resolved to, with no
// decode, normalization or content address: normalization is a pure
// function of the body and the server's fixed config, so an alias hit is
// exactly an LRU hit. A spelling kept by a ghost names the address of an
// evicted entry: its body is read back through stored, and answered with
// that source's disposition, unless this replica does not hold it or
// another replica owns the address. Otherwise the body is decoded into v,
// resolve builds the job, answer answers it, and the alias is recorded on
// the entry if the body is now resident. A streamed request bypasses
// aliases and ghosts.
func (s *Server) answerRequest(w http.ResponseWriter, r *http.Request, route string, v any, resolve func() (job, error)) {
	raw, ok := readBody(w, r, 1<<20)
	if !ok {
		return
	}
	streams := streamed(r)
	a := alias{route, sha256.Sum256(raw)}
	if !streams {
		addr, body, doc, resident, ok := s.cache.byAlias(a)
		disposition := "hit"
		if ok && !resident {
			if _, remote := s.routeOwner(r.Header.Get(routedHeader) != "", addr); !remote {
				body, disposition, resident = s.stored(addr)
			}
		}
		if resident {
			if disposition == "hit" {
				s.hits.Add(1)
			}
			s.writeNegotiated(w, r, job{addr: addr, doc: doc}, body, disposition)
			return
		}
	}
	if err := decodeBody(raw, v); err != nil {
		writeBadBody(w, err)
		return
	}
	j, err := resolve()
	if err != nil {
		writeError(w, err)
		return
	}
	s.answer(w, r, j)
	if !streams {
		s.cache.alias(a, j.addr, j.doc)
	}
}

// answer is the one request path every cacheable endpoint ends in (see the
// package comment). A stream goes to the stream bridge; anything else
// resolves through fetch and is written with its disposition.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, j job) {
	if j.streams {
		if st := newStreamer(w, r); st != nil {
			s.stream(st, r.Context(), j)
			return
		}
	}
	body, disposition, replica, err := s.fetch(r.Context(), r.Header.Get(routedHeader) != "", j)
	if err != nil {
		writeError(w, err)
		return
	}
	if replica != "" {
		w.Header().Set(replicaHeader, replica)
	}
	s.writeNegotiated(w, r, j, body, disposition)
}

// fetch resolves a job to its body: the LRU, then the owner when another
// replica owns the address, routed is false and the job can be forwarded
// (replica names it), then a local flight. A failed owner counts a
// fallback: availability beats strict ownership.
func (s *Server) fetch(ctx context.Context, routed bool, j job) (body []byte, disposition, replica string, err error) {
	if body, ok := s.lookup(j.addr); ok {
		return body, "hit", "", nil
	}
	if owner, ok := s.routeOwner(routed, j.addr); ok && j.request != nil {
		body, disposition, err := s.flight(ctx, j.addr, s.proxy(owner, j))
		if err == nil {
			return body, disposition, owner, nil
		}
		s.peerFallbacks.Add(1)
	}
	body, disposition, err = s.flight(ctx, j.addr, s.readThrough(j, nil))
	return body, disposition, "", err
}

// flight runs a flight body through the singleflight layer — one
// concurrent execution per address, detached from any one client — and
// names the disposition: "dedup" when this call joined another's flight,
// else the source the body reported.
func (s *Server) flight(ctx context.Context, addr string, run func(src *string) ([]byte, error)) ([]byte, string, error) {
	var src string
	body, err, leader := s.flights.do(ctx, addr, func() ([]byte, error) { return run(&src) })
	switch {
	case err != nil:
		return nil, "", err
	case !leader:
		s.dedups.Add(1)
		return body, "dedup", nil
	}
	return body, src, nil
}

// readThrough is the local flight body: the LRU again (a request that lost
// the race to a just-finished flight must not run the job twice), the disk
// store, the peers' stores, and only then the job's run, passed emit. The
// body is stored inside the flight, so it survives every waiter leaving.
func (s *Server) readThrough(j job, emit func(string, any)) func(src *string) ([]byte, error) {
	return func(src *string) ([]byte, error) {
		if body, from, ok := s.stored(j.addr); ok {
			if from == "hit" {
				s.hits.Add(1)
			}
			*src = from
			return body, nil
		}
		if body, ok := s.peerObject(j.addr); ok {
			*src = "peer"
			return body, nil
		}
		s.misses.Add(1)
		*src = "miss"
		body, err := j.run(emit)
		if err == nil {
			s.adopt(j.addr, body)
		}
		return body, err
	}
}

// lookup is the LRU check: a hit is counted.
func (s *Server) lookup(addr string) ([]byte, bool) {
	body, ok := s.cache.get(addr)
	if ok {
		s.hits.Add(1)
	}
	return body, ok
}

// adopt puts a finished body in the LRU and, best-effort, the disk store:
// persistence failing must not fail the request the body answers.
func (s *Server) adopt(addr string, body []byte) {
	s.cache.put(addr, body, nil)
	if s.store != nil {
		s.store.Put(addr, body)
	}
}

// stored returns a finished body this replica already holds: from the LRU
// ("hit") or from the disk store ("disk"), promoting it into the LRU with
// the SHA-256 the store verified.
func (s *Server) stored(addr string) (body []byte, from string, ok bool) {
	if body, ok := s.cache.get(addr); ok {
		return body, "hit", true
	}
	if s.store != nil {
		if body, sum, ok := s.store.GetSum(addr); ok {
			s.cache.put(addr, body, &sum)
			return body, "disk", true
		}
	}
	return nil, "", false
}
