package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/perfin"
)

// The serve workloads replay a deck: every distinct request the benchmark
// can send, each with a Zipf weight by rank. A pass sends every deck key at
// least once, so each pass simulates the same set of sessions whatever the
// seed. The shape of the load is fixed — ranks go round-robin over classes
// (a workload with a view set, or an ingest view set) in a fixed order, and
// first requests for each key sit at evenly spaced points of the pass in
// rank order — so runs with different seeds meet their misses in the same
// order and compare like with like. The seed chooses the inputs: the
// simulation seeds, the perf captures, the order of the repeat requests in
// every pass and which requests ask for pprof.

var (
	// deckViews are the view sets a profile key asks for; nil omits the
	// field, which the server resolves to every view the workload can serve.
	deckViews = [][]string{{"dataprofile"}, {"dataprofile", "missclass"}, nil}
	// deckMeasureMs are measured windows that share one warm address.
	deckMeasureMs = []uint64{1, 2}
	// deckSeedsPerWorkload is how many simulation seeds each workload gets.
	deckSeedsPerWorkload = 2
	// deckCaptures is how many perf.data captures the deck ingests.
	deckCaptures = 4
)

// captureSamples is the sample count of every synthesized capture; the
// seed varies their addresses, CPUs and outcomes, not their size.
const captureSamples = 600

// The traffic mix. The skew is the one dprof's load harness and its
// recorded dprofd load figures use (s = 1.2). The repository holds no
// request log, so the pprof share and the ingest keys' place at the cold
// end of the ranking are assumptions, not observed traffic.
const (
	passRequests = 1200 // requests per pass, deck keys included
	zipfS        = 1.2  // rank exponent of the deck weights
	pprofShare   = 0.15 // share of requests that ask for ?format=pprof
)

// entry is one distinct deck key.
type entry struct {
	id   int
	path string // request path and query
	body []byte // request body

	// Profile keys.
	workload  string
	seed      int64
	views     []string // nil: the server's default views
	measureMs uint64

	// Ingest keys.
	capture []byte
	ingestV string // ?views= value, "" for the default
}

func (e *entry) ingest() bool { return e.capture != nil }

// class is the kind of key: a workload with a view set, or an ingest view
// set. Keys of one class differ only in seeds, captures and windows.
func (e *entry) class() string {
	if e.ingest() {
		return "ingest?" + e.ingestV
	}
	return fmt.Sprintf("%s/%v", e.workload, e.views)
}

// warmKey groups the profile keys that share a warmup checkpoint.
func (e *entry) warmKey() string {
	return fmt.Sprintf("%s/%d/%v", e.workload, e.seed, e.views)
}

func (e *entry) String() string {
	if e.ingest() {
		return fmt.Sprintf("ingest#%d%s", e.id, e.path[len("/ingest"):])
	}
	return fmt.Sprintf("%s/seed=%d/views=%v/measure=%dms", e.workload, e.seed, e.views, e.measureMs)
}

// request is one HTTP request of a pass.
type request struct {
	e     *entry
	pprof bool
}

// buildDeck enumerates the distinct keys: every registered workload × view
// set × simulation seed × measured window, plus the perf.data captures.
func buildDeck(seed int64) []*entry {
	var deck []*entry
	for _, name := range workload.Names() {
		for s := 0; s < deckSeedsPerWorkload; s++ {
			simSeed := seed*int64(deckSeedsPerWorkload) + int64(s) + 1
			for _, views := range deckViews {
				for _, m := range deckMeasureMs {
					body, err := json.Marshal(profileBody{
						Workload:  name,
						Options:   map[string]string{"seed": strconv.FormatInt(simSeed, 10)},
						Views:     views,
						MeasureMs: m,
						Quick:     true,
					})
					if err != nil {
						panic(err) // plain data
					}
					deck = append(deck, &entry{
						id: len(deck), path: "/profile", body: body,
						workload: name, seed: simSeed, views: views, measureMs: m,
					})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for c := 0; c < deckCaptures; c++ {
		e := &entry{id: len(deck), path: "/ingest", capture: synthCapture(rng)}
		if c%2 == 1 {
			e.ingestV = "dataprofile,missclass"
			e.path += "?views=" + e.ingestV
		}
		e.body = e.capture
		deck = append(deck, e)
	}
	return deck
}

// profileBody is the POST /profile wire shape the deck sends.
type profileBody struct {
	Workload  string            `json:"workload"`
	Options   map[string]string `json:"options"`
	Views     []string          `json:"views,omitempty"`
	MeasureMs uint64            `json:"measure_ms"`
	Quick     bool              `json:"quick"`
}

// classOrderSeed fixes the order in which profile classes take ranks. It
// is a constant: the hotness profile is part of the benchmark, not its
// input.
const classOrderSeed = 1

// rankDeck orders the deck by rank, hottest first: one variant of every
// class per round, profile classes in a fixed order and the ingest classes
// last, so ingestion stays a minority of the traffic. Within a class, first
// windows come before second ones, so the keys of one warm address sit a
// round apart.
func rankDeck(deck []*entry) []*entry {
	var classes [][]*entry
	index := map[string]int{}
	for _, e := range deck {
		k := e.class()
		i, ok := index[k]
		if !ok {
			i = len(classes)
			index[k] = i
			classes = append(classes, nil)
		}
		classes[i] = append(classes[i], e)
	}
	var profiles, ingests []int
	for i, c := range classes {
		slices.SortStableFunc(c, func(a, b *entry) int { return cmp.Compare(a.measureMs, b.measureMs) })
		if c[0].ingest() {
			ingests = append(ingests, i)
		} else {
			profiles = append(profiles, i)
		}
	}
	rand.New(rand.NewSource(classOrderSeed)).Shuffle(len(profiles), func(i, j int) {
		profiles[i], profiles[j] = profiles[j], profiles[i]
	})
	order := append(profiles, ingests...)
	var ranked []*entry
	for round := 0; len(ranked) < len(deck); round++ {
		for _, ci := range order {
			if round < len(classes[ci]) {
				ranked = append(ranked, classes[ci][round])
			}
		}
	}
	return ranked
}

// buildPass lays out pass number `pass`. Each ranked key is sent once plus
// its Zipf share of the remaining requests. The first request for each key
// sits at an evenly spaced slot, in rank order; the repeats fill the other
// slots in an order seeded by the seed and the pass. The hottest key opens
// the pass on both clients at once, so the singleflight layer always has a
// concurrent duplicate to fold.
func buildPass(ranked []*entry, seed int64, pass int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	var wsum float64
	for r := range ranked {
		wsum += 1 / math.Pow(float64(r+1), zipfS)
	}
	extra := passRequests - len(ranked)
	var repeats []*entry
	for r, e := range ranked {
		n := int(float64(extra) / math.Pow(float64(r+1), zipfS) / wsum)
		for k := 0; k < n; k++ {
			repeats = append(repeats, e)
		}
	}
	rng.Shuffle(len(repeats), func(i, j int) { repeats[i], repeats[j] = repeats[j], repeats[i] })

	total := len(ranked) + len(repeats)
	seq := make([]*entry, total)
	for k, e := range ranked {
		seq[k*total/len(ranked)] = e
	}
	// The hottest key's first repeat takes slot 1.
	for i, e := range repeats {
		if e == ranked[0] {
			repeats[0], repeats[i] = repeats[i], repeats[0]
			break
		}
	}
	seq[1], repeats = repeats[0], repeats[1:]
	for i := range seq {
		if seq[i] == nil {
			seq[i], repeats = repeats[0], repeats[1:]
		}
	}
	out := make([]request, total)
	for i, e := range seq {
		out[i] = request{e: e, pprof: i >= 2 && rng.Float64() < pprofShare}
	}
	return out
}

// perf_event ABI values used to synthesize captures (the perfin package
// keeps its own copies unexported).
const (
	perfSampleIP      = 1 << 0
	perfSampleTID     = 1 << 1
	perfSampleTime    = 1 << 2
	perfSampleAddr    = 1 << 3
	perfSampleCPU     = 1 << 7
	perfSamplePeriod  = 1 << 8
	perfSampleWeight  = 1 << 14
	perfSampleDataSrc = 1 << 15

	memOpLoad   = 0x02
	memOpStore  = 0x04
	memLvlHit   = 0x02
	memLvlMiss  = 0x04
	memLvlL1    = 0x08
	memLvlL2    = 0x20
	memLvlL3    = 0x40
	memLvlLocRM = 0x80
	snoopHitM   = 0x04
)

// synthCapture writes a `perf mem record`-shaped capture: a code mapping, a
// write-shared ring and a read-mostly table, sampled on four CPUs with
// seeded offsets and a mix of HITM, DRAM, L1 and L2 outcomes.
func synthCapture(rng *rand.Rand) []byte {
	const st = perfSampleIP | perfSampleTID | perfSampleTime | perfSampleAddr |
		perfSampleCPU | perfSamplePeriod | perfSampleWeight | perfSampleDataSrc
	const (
		codeBase = 0x400000
		ringBase = 0x7f0000000000
		tblBase  = 0x7f1000000000
	)
	w := perfin.NewFileWriter(st)
	w.Mmap(codeBase, 0x4000, "/usr/bin/served")
	w.Mmap2(ringBase, 0x100000, "/dev/shm/ring")
	w.Mmap2(tblBase, 0x10000, "/var/lib/table.dat")
	t := uint64(1_000_000)
	for i := 0; i < captureSamples; i++ {
		t += uint64(1000 + rng.Intn(3000))
		cpu := uint32(rng.Intn(4))
		s := perfin.SampleSpec{Time: t, CPU: cpu}
		switch k := rng.Intn(10); {
		case k < 3: // write-shared ring slot
			s.IP = codeBase + 0x100 + uint64(rng.Intn(4))*0x40
			s.Addr = ringBase + uint64(rng.Intn(16))*0x1000 + 0x40
			s.Weight = uint64(150 + rng.Intn(80))
			s.DataSrc = perfin.DataSrc(memOpLoad, memLvlHit|memLvlL3, snoopHitM)
			if k == 0 {
				s.Weight = 0
				s.DataSrc = perfin.DataSrc(memOpStore, memLvlHit|memLvlL1, 0)
			}
		case k < 6: // streaming ring scan
			s.IP = codeBase + 0x800
			s.Addr = ringBase + uint64(rng.Intn(0x100000))&^7
			s.Weight = uint64(220 + rng.Intn(100))
			s.DataSrc = perfin.DataSrc(memOpLoad, memLvlMiss|memLvlLocRM, 0)
		default: // table lookups
			s.IP = codeBase + 0x1200 + uint64(rng.Intn(8))*0x10
			s.Addr = tblBase + uint64(rng.Intn(0x400))*0x40
			s.Weight = uint64(10 + rng.Intn(10))
			s.DataSrc = perfin.DataSrc(memOpLoad, memLvlHit|memLvlL2, 0)
		}
		w.Sample(s)
	}
	return w.Bytes()
}
