package pt

import (
	"hash/maphash"

	"ptx/internal/relation"
)

// configSeed seeds the state and tag hashes of a Config.
var configSeed = maphash.MakeSeed()

// Config is one (state, tag, register) configuration: by determinism
// (Proposition 1(1)) what identifies a node's subtree in a run, a repair
// and a checkpoint. Build one with NewConfig, which hashes it (a literal
// matches nothing); a hash match is confirmed by equality, so a
// collision never makes two configurations one.
type Config struct {
	State, Tag string
	Reg        *relation.Relation
	h          uint64
}

// NewConfig returns the configuration (state, tag, reg) with its hash.
func NewConfig(state, tag string, reg *relation.Relation) Config {
	const mix = 0x9e3779b97f4a7c15
	h := reg.Hash()
	h = h*mix ^ maphash.String(configSeed, state)
	h = h*mix ^ maphash.String(configSeed, tag)
	return Config{State: state, Tag: tag, Reg: reg, h: h}
}

// same reports whether c and o are the same configuration.
func (c Config) same(o Config) bool {
	return c.h == o.h && c.State == o.State && c.Tag == o.Tag && c.Reg.Equal(o.Reg)
}

// configSet is a stack of configurations with a membership test: the
// driver's current path (the ancestor set of the stop condition) and
// OutputRelation's set of configurations seen. top maps a hash to the
// index of the highest entry carrying it, and prev links each entry to
// the next lower one with its hash, so contains compares only entries
// whose hash matches — one, barring collisions, since an expanded
// configuration never repeats on a path.
type configSet struct {
	path []Config
	prev []int32
	top  map[uint64]int32
}

func newConfigSet() configSet { return configSet{top: map[uint64]int32{}} }

func (s *configSet) push(c Config) {
	p, ok := s.top[c.h]
	if !ok {
		p = -1
	}
	s.top[c.h] = int32(len(s.path))
	s.path = append(s.path, c)
	s.prev = append(s.prev, p)
}

// pop removes the top entry.
func (s *configSet) pop() {
	i := len(s.path) - 1
	if p := s.prev[i]; p >= 0 {
		s.top[s.path[i].h] = p
	} else {
		delete(s.top, s.path[i].h)
	}
	s.path[i] = Config{} // drop the register reference
	s.path, s.prev = s.path[:i], s.prev[:i]
}

// reset empties the set, keeping its storage.
func (s *configSet) reset() {
	clear(s.path)
	s.path, s.prev = s.path[:0], s.prev[:0]
	clear(s.top)
}

// contains reports whether an entry is the same configuration as c.
func (s *configSet) contains(c Config) bool {
	i, ok := s.top[c.h]
	for ok && i >= 0 {
		if s.path[i].same(c) {
			return true
		}
		i = s.prev[i]
	}
	return false
}
