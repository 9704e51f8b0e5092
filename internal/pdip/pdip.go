// Package pdip implements Priority Directed Instruction Prefetching, the
// paper's contribution (§4–§5).
//
// PDIP issues prefetches only for front-end-critical (FEC) lines — lines
// that missed the L1-I and exposed the front-end to stalls FDIP could not
// hide — and triggers each prefetch from the block address of the
// instruction that disrupted the front-end: the resteering (mispredicted
// or BTB-missing) branch, or, for long-latency misses with no resteer, the
// last retired taken branch. The trigger→target association lives in the
// PDIP table: set-associative, indexed and tagged by trigger block
// address, each entry holding up to two target lines plus a 4-bit mask
// naming up to four following blocks per target.
package pdip

import (
	"fmt"
	"sort"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/prefetch"
	"pdip/internal/recycle"
	"pdip/internal/rng"
)

// Config parameterises the PDIP table and insertion filters (§5).
type Config struct {
	// Sets is the number of table sets; the paper fixes 512 and scales
	// capacity by associativity.
	Sets int
	// Ways is the associativity (2→11KB, 4→22KB, 8→43.5KB, 16→87KB).
	Ways int
	// TargetsPerEntry is the number of target slots per entry (paper: 2).
	TargetsPerEntry int
	// MaskBits is the number of following blocks each target can name
	// (paper: 4).
	MaskBits int
	// TagBits sizes the partial tag (paper: 10).
	TagBits int
	// InsertProb inserts qualifying FEC lines with this probability
	// (§5.3: 0.25 performs best; 1.0 disables the filter).
	InsertProb float64
	// RequireHighCost restricts insertion to high-cost FEC lines (>10
	// starvation cycles) that also saw back-end stalls (§4.1, §5.3).
	RequireHighCost bool
	// IgnoreReturns skips insertion when the resteer was a return
	// mispredict (§5.2: reduces table pollution).
	IgnoreReturns bool
	// Seed drives the probabilistic-insertion RNG.
	Seed uint64
}

// TargetAddrBits is the stored physical line-address width used in the
// paper's storage accounting (34 bits).
const TargetAddrBits = 34

// DefaultConfig returns the paper's preferred PDIP(44) configuration:
// 512 sets × 8 ways × 2 targets, 4-bit masks, 10-bit tags, 0.25 insertion.
func DefaultConfig() Config {
	return Config{
		Sets:            512,
		Ways:            8,
		TargetsPerEntry: 2,
		MaskBits:        4,
		TagBits:         10,
		InsertProb:      0.25,
		RequireHighCost: true,
		IgnoreReturns:   true,
		Seed:            0x9d1b,
	}
}

// ConfigForWays returns the default configuration at a given associativity
// (the paper's PDIP(11)/(22)/(44)/(87) sweep).
func ConfigForWays(ways int) Config {
	c := DefaultConfig()
	c.Ways = ways
	return c
}

// StorageKB computes the table's metadata budget exactly as §5.4 does:
// per way, TagBits + 1 LRU bit + TargetsPerEntry×(34-bit address + mask).
func (c Config) StorageKB() float64 {
	bitsPerEntry := c.TagBits + 1 + c.TargetsPerEntry*(TargetAddrBits+c.MaskBits)
	totalBits := c.Sets * c.Ways * bitsPerEntry
	return float64(totalBits) / 8192.0
}

// Stats counts PDIP-specific events.
type Stats = checkpoint.PDIPStats

// PDIP is the prefetcher.
type PDIP struct {
	cfg Config
	// entries is the table, set-major (set*Ways + way); entry i owns
	// target slots i*TargetsPerEntry onward in targets.
	entries []checkpoint.PDIPEntryState
	targets []checkpoint.PDIPTargetState
	tick    uint32
	r       *rng.RNG

	Stats Stats

	// debugInserted, allocated by EnableDebug, records every line ever
	// placed (or mask-merged) as a prefetch target. Nil — and therefore
	// free — unless debugging is requested.
	debugInserted map[isa.Addr]struct{}
	// DebugLog, when set by a test, receives table events:
	// kind ∈ {"insert", "merge", "emit", "evict-target"}.
	DebugLog func(kind string, trigger, line isa.Addr)
}

// validate checks the geometry the table layout and the §5.4 storage
// accounting rest on. Zero selects a default and a negative MaskBits the
// no-mask ablation, so both pass.
func (c Config) validate() error {
	switch {
	case c.Sets < 0 || c.Ways < 0 || c.TargetsPerEntry < 0:
		return fmt.Errorf("pdip: Sets %d, Ways %d, TargetsPerEntry %d must be non-negative (zero selects the paper default)",
			c.Sets, c.Ways, c.TargetsPerEntry)
	case c.MaskBits > 8:
		return fmt.Errorf("pdip: MaskBits %d exceeds 8: the per-target successor mask is a uint8", c.MaskBits)
	case c.TagBits < 0 || c.TagBits >= 32:
		return fmt.Errorf("pdip: TagBits %d outside [0, 32): the partial tag is a uint32", c.TagBits)
	case !(c.InsertProb >= 0 && c.InsertProb <= 1):
		return fmt.Errorf("pdip: InsertProb %g outside [0, 1]", c.InsertProb)
	}
	return nil
}

// New builds a PDIP prefetcher; zero-value fields of cfg fall back to the
// paper defaults. Like cache.MustNew, it panics on geometry that
// validate rejects, naming the broken rule: its callers are policy hooks
// with no error return.
func New(cfg Config) *PDIP {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	def := DefaultConfig()
	if cfg.Sets == 0 {
		cfg.Sets = def.Sets
	}
	if cfg.Ways == 0 {
		cfg.Ways = def.Ways
	}
	if cfg.TargetsPerEntry == 0 {
		cfg.TargetsPerEntry = def.TargetsPerEntry
	}
	if cfg.MaskBits == 0 {
		cfg.MaskBits = def.MaskBits
	}
	if cfg.MaskBits < 0 {
		cfg.MaskBits = 0 // explicit no-mask ablation
	}
	if cfg.TagBits == 0 {
		cfg.TagBits = def.TagBits
	}
	if cfg.InsertProb == 0 {
		cfg.InsertProb = def.InsertProb
	}
	n := cfg.Sets * cfg.Ways
	return &PDIP{
		cfg:     cfg,
		entries: recycle.Make[[]checkpoint.PDIPEntryState](n),
		targets: recycle.Make[[]checkpoint.PDIPTargetState](n * cfg.TargetsPerEntry),
		r:       rng.New(cfg.Seed ^ 0x9d19),
	}
}

// Release hands the table to the recycler (internal/recycle) and drops
// it; the prefetcher must not be used afterwards.
func (p *PDIP) Release() {
	recycle.Free(p.entries)
	recycle.Free(p.targets)
	p.entries, p.targets = nil, nil
}

// Name implements prefetch.Prefetcher.
func (p *PDIP) Name() string { return "pdip" }

// StorageKB implements prefetch.Prefetcher.
func (p *PDIP) StorageKB() float64 { return p.cfg.StorageKB() }

// Config returns the active configuration.
func (p *PDIP) Config() Config { return p.cfg }

// indexTag splits a trigger block address into set index and partial tag.
// Triggers are block (line) addresses, so the line number indexes the set.
func (p *PDIP) indexTag(block isa.Addr) (int, uint32) {
	ln := uint64(block) >> isa.LineShift
	set := int(ln % uint64(p.cfg.Sets))
	tag := uint32(ln/uint64(p.cfg.Sets)) & ((1 << p.cfg.TagBits) - 1)
	return set, tag
}

// targetsOf returns the target slots of entry index i (set*Ways + way).
func (p *PDIP) targetsOf(i int) []checkpoint.PDIPTargetState {
	n := p.cfg.TargetsPerEntry
	return p.targets[i*n : (i+1)*n]
}

// OnFTQInsert implements prefetch.Prefetcher: probe the table with the new
// FTQ entry's block address; on a hit, emit every associated target line
// plus its masked following blocks.
func (p *PDIP) OnFTQInsert(block isa.Addr, out []prefetch.Request) []prefetch.Request {
	p.Stats.Lookups++
	set, tag := p.indexTag(block.Line())
	for i := set * p.cfg.Ways; i < (set+1)*p.cfg.Ways; i++ {
		e := &p.entries[i]
		if !e.Valid || e.Tag != tag {
			continue
		}
		p.Stats.Hits++
		p.tick++
		e.LRU = p.tick
		for _, tg := range p.targetsOf(i) {
			if !tg.Valid {
				continue
			}
			if p.DebugLog != nil {
				p.DebugLog("emit", block.Line(), tg.Base)
			}
			out = append(out, prefetch.Request{Line: tg.Base, Trigger: tg.Trig})
			for k := 0; k < p.cfg.MaskBits; k++ {
				if tg.Mask&(1<<k) != 0 {
					out = append(out, prefetch.Request{
						Line:    tg.Base + isa.Addr((k+1)*isa.LineSize),
						Trigger: tg.Trig,
					})
				}
			}
		}
		break
	}
	return out
}

// OnLineRetired implements prefetch.Prefetcher: qualify the retired line
// episode as a prefetch candidate and associate it with its trigger.
func (p *PDIP) OnLineRetired(ev prefetch.RetireEvent) {
	if !ev.FEC {
		return
	}
	if p.cfg.RequireHighCost && !(ev.HighCost && ev.BackendEmpty) {
		return
	}
	p.Stats.InsertAttempts++

	var trigBlock isa.Addr
	var kind prefetch.TriggerKind
	switch {
	case ev.ResteerTrigger != 0:
		if p.cfg.IgnoreReturns && ev.ResteerWasReturn {
			p.Stats.InsertReturnSkipped++
			return
		}
		trigBlock = ev.ResteerTrigger.Line()
		kind = prefetch.TriggerMispredict
	case ev.LastTakenBlock != 0:
		trigBlock = ev.LastTakenBlock.Line()
		kind = prefetch.TriggerLastTaken
	default:
		p.Stats.InsertNoTrigger++
		return
	}
	// Self-triggering entries are useless: by the time the trigger block
	// is seen the target is being fetched already.
	if trigBlock == ev.Line {
		return
	}

	if !p.r.Bool(p.cfg.InsertProb) {
		p.Stats.InsertFiltered++
		return
	}
	if p.debugInserted != nil {
		p.debugInserted[ev.Line] = struct{}{}
	}
	p.insert(trigBlock, ev.Line, kind)
}

// insert places (trigger → targetLine) into the table, folding the target
// into an existing entry's mask when it is within MaskBits following
// blocks of a stored base.
func (p *PDIP) insert(trigBlock, targetLine isa.Addr, kind prefetch.TriggerKind) {
	set, tag := p.indexTag(trigBlock)
	base := set * p.cfg.Ways
	ways := p.entries[base : base+p.cfg.Ways]
	p.tick++

	// Find the entry for this trigger.
	way := -1
	for w := range ways {
		if ways[w].Valid && ways[w].Tag == tag {
			way = w
			break
		}
	}
	if way < 0 {
		// Allocate the LRU way.
		way = 0
		var oldest uint32 = ^uint32(0)
		for w := range ways {
			if !ways[w].Valid {
				way = w
				break
			}
			if ways[w].LRU < oldest {
				way, oldest = w, ways[w].LRU
			}
		}
		ways[way].Valid = true
		ways[way].Tag = tag
		clear(p.targetsOf(base + way))
	}
	ways[way].LRU = p.tick
	targets := p.targetsOf(base + way)

	// Merge into an existing target when the line is the base or within
	// the mask window of a stored base.
	for t := range targets {
		tg := &targets[t]
		if !tg.Valid {
			continue
		}
		if targetLine == tg.Base {
			tg.LRU = p.tick
			return
		}

		if targetLine > tg.Base {
			delta := int(targetLine-tg.Base) / isa.LineSize
			if delta >= 1 && delta <= p.cfg.MaskBits {
				tg.Mask |= 1 << (delta - 1)
				tg.LRU = p.tick
				p.Stats.MaskMerged++
				return
			}
		}
	}
	// Place in a free target slot, else replace the LRU target.
	victim := -1
	var oldest uint32 = ^uint32(0)
	for t := range targets {
		tg := &targets[t]
		if !tg.Valid {
			victim = t
			break
		}
		if tg.LRU < oldest {
			victim, oldest = t, tg.LRU
		}
	}
	if p.DebugLog != nil {
		if old := targets[victim]; old.Valid {
			p.DebugLog("evict-target", trigBlock, old.Base)
		}
		p.DebugLog("insert", trigBlock, targetLine)
	}
	targets[victim] = checkpoint.PDIPTargetState{Valid: true, Base: targetLine, Trig: kind, LRU: p.tick}
	p.Stats.Inserted++
}

// ResetStats zeroes the counters while keeping table state warm (used at
// the end of the measurement warmup window).
func (p *PDIP) ResetStats() { p.Stats = Stats{} }

// EnableDebug turns on insertion recording: every line subsequently
// placed (or mask-merged) as a prefetch target is remembered and can be
// read back with DebugInsertedLines. Off by default so production runs
// pay neither the map nor its growth.
func (p *PDIP) EnableDebug() {
	if p.debugInserted == nil {
		p.debugInserted = make(map[isa.Addr]struct{})
	}
}

// DebugInsertedLines returns every line recorded since EnableDebug, in
// ascending address order (a deterministic dump of an unordered set).
func (p *PDIP) DebugInsertedLines() []isa.Addr {
	lines := make([]isa.Addr, 0, len(p.debugInserted))
	for l := range p.debugInserted {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// DebugHolds reports whether the table currently associates trigger with
// line (directly or via a mask bit). Test/diagnostic use only.
func (p *PDIP) DebugHolds(trigger, line isa.Addr) bool {
	set, tag := p.indexTag(trigger.Line())
	for i := set * p.cfg.Ways; i < (set+1)*p.cfg.Ways; i++ {
		if e := &p.entries[i]; !e.Valid || e.Tag != tag {
			continue
		}
		for _, tg := range p.targetsOf(i) {
			if !tg.Valid {
				continue
			}
			if line == tg.Base {
				return true
			}
			if line > tg.Base {
				d := int(line-tg.Base) / isa.LineSize
				if d >= 1 && d <= p.cfg.MaskBits && tg.Mask&(1<<(d-1)) != 0 {
					return true
				}
			}
		}
	}
	return false
}
