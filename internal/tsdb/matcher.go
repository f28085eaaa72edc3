package tsdb

import (
	"fmt"
	"regexp"
)

// MatchType enumerates label matcher operators.
type MatchType int

// Matcher operators, mirroring PromQL's =, !=, =~ and !~.
const (
	MatchEqual MatchType = iota
	MatchNotEqual
	MatchRegexp
	MatchNotRegexp
)

// String returns the PromQL spelling of the operator.
func (t MatchType) String() string {
	switch t {
	case MatchEqual:
		return "="
	case MatchNotEqual:
		return "!="
	case MatchRegexp:
		return "=~"
	case MatchNotRegexp:
		return "!~"
	}
	return fmt.Sprintf("MatchType(%d)", int(t))
}

// Matcher is one label constraint of a selector.
type Matcher struct {
	Type  MatchType
	Name  string
	Value string
	re    *regexp.Regexp
}

// NewMatcher builds a matcher; regexp matchers are fully anchored like
// PromQL (the pattern must match the whole label value).
func NewMatcher(t MatchType, name, value string) (*Matcher, error) {
	m := &Matcher{Type: t, Name: name, Value: value}
	if t == MatchRegexp || t == MatchNotRegexp {
		re, err := regexp.Compile("^(?:" + value + ")$")
		if err != nil {
			return nil, fmt.Errorf("tsdb: invalid matcher regexp %q: %w", value, err)
		}
		m.re = re
	}
	return m, nil
}

// NameMatcher is shorthand for an equality matcher on __name__.
func NameMatcher(metric string) *Matcher {
	return &Matcher{Type: MatchEqual, Name: MetricNameLabel, Value: metric}
}

// Matches reports whether the matcher accepts the value.
func (m *Matcher) Matches(v string) bool {
	switch m.Type {
	case MatchEqual:
		return v == m.Value
	case MatchNotEqual:
		return v != m.Value
	case MatchRegexp:
		return m.re.MatchString(v)
	case MatchNotRegexp:
		return !m.re.MatchString(v)
	}
	return false
}

// MatchLabels reports whether all matchers accept the label set. A
// matcher on an absent label sees the empty string, as in Prometheus.
func MatchLabels(ls Labels, matchers []*Matcher) bool {
	for _, m := range matchers {
		if !m.Matches(ls.Get(m.Name)) {
			return false
		}
	}
	return true
}

// String renders the matcher in PromQL notation.
func (m *Matcher) String() string {
	return fmt.Sprintf("%s%s%q", m.Name, m.Type, m.Value)
}
