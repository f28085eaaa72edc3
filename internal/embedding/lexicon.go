package embedding

import (
	"strings"

	"dio/internal/textutil"
)

// Lexicon expands domain abbreviations and jargon into canonical token
// sequences before embedding. It is part of the *domain-specific database*
// of the paper (§3.1): curated operator knowledge that generic models lack.
// Both documents and queries are expanded through the same lexicon, so
// "NI-LR" in a question and "network induced location request" in a metric
// description share embedding mass.
type Lexicon struct {
	// expansions maps a normalised multi-token key (space-joined, stemmed)
	// to the canonical tokens appended when the key is seen.
	expansions map[string][]string
	// maxKeyLen is the longest key in tokens, bounding the scan window.
	maxKeyLen int
}

// NewLexicon returns an empty lexicon.
func NewLexicon() *Lexicon {
	return &Lexicon{expansions: make(map[string][]string)}
}

// Add registers an expansion from phrase to canonical. Both sides are
// normalised with the shared token pipeline. Adding the same phrase twice
// merges the canonical tokens.
func (l *Lexicon) Add(phrase, canonical string) {
	key := strings.Join(textutil.StemAll(textutil.Tokenize(phrase)), " ")
	if key == "" {
		return
	}
	toks := textutil.NormalizeTokens(canonical)
	l.expansions[key] = append(l.expansions[key], toks...)
	n := len(strings.Fields(key))
	if n > l.maxKeyLen {
		l.maxKeyLen = n
	}
}

// Expand returns tokens with canonical expansions appended for every
// longest-match phrase found in the input. The original tokens are always
// preserved; expansion only adds signal.
func (l *Lexicon) Expand(tokens []string) []string {
	if l == nil || len(l.expansions) == 0 || len(tokens) == 0 {
		return tokens
	}
	out := make([]string, len(tokens), len(tokens)+8)
	copy(out, tokens)
	var buf [64]byte // the longest window's key; shorter keys are its prefixes
	for i := 0; i < len(tokens); i++ {
		limit := min(l.maxKeyLen, len(tokens)-i)
		key := append(buf[:0], tokens[i]...)
		for _, t := range tokens[i+1 : i+limit] {
			key = append(append(key, ' '), t...)
		}
		// Longest match first: drop the window's last token and its space.
		for n := limit; n >= 1; n-- {
			if exp, ok := l.expansions[string(key)]; ok {
				out = append(out, exp...)
				i += n - 1
				break
			}
			key = key[:max(len(key)-len(tokens[i+n-1])-1, 0)]
		}
	}
	return out
}

// DomainLexicon returns the curated 5G-operator lexicon shipped with the
// domain-specific database. The entries model the specialist knowledge the
// paper's experts contribute: 3GPP abbreviations, procedure aliases and
// counter-name fragments.
func DomainLexicon() *Lexicon {
	l := NewLexicon()
	for _, e := range domainExpansions {
		l.Add(e[0], e[1])
	}
	return l
}

// DomainExpansions returns the raw {phrase, canonical} pairs of the seed
// expert lexicon. The simulated foundation models derive their per-tier
// telecom world knowledge from a deterministic subset of these pairs.
func DomainExpansions() [][2]string {
	out := make([][2]string, len(domainExpansions))
	copy(out, domainExpansions)
	return out
}

// domainExpansions is the seed expert knowledge. Each pair is
// {phrase, canonical expansion}. Expansions are bidirectional where both
// surface forms occur in practice.
var domainExpansions = [][2]string{
	{"pdu", "packet data unit session"},
	{"packet data unit", "pdu"},
	{"amf", "access and mobility management function"},
	{"access and mobility management", "amf"},
	{"smf", "session management function"},
	{"session management function", "smf"},
	{"upf", "user plane function"},
	{"user plane function", "upf"},
	{"nrf", "network function repository"},
	{"repository function", "nrf"},
	{"nssf", "network slice selection function"},
	{"slice selection function", "nssf"},
	{"n3iwf", "non 3gpp interworking function"},
	{"non 3gpp interworking", "n3iwf"},
	{"ni lr", "network induced location request"},
	{"network induced location request", "ni lr"},
	{"mo lr", "mobile originated location request"},
	{"mt lr", "mobile terminated location request"},
	{"lcs", "location service"},
	{"location services", "lcs"},
	{"auth", "authentication"},
	{"authentication", "auth"},
	{"reg", "registration"},
	{"dereg", "deregistration"},
	{"deregistration", "dereg"},
	{"ue", "user equipment"},
	{"user equipment", "ue"},
	{"nas", "non access stratum"},
	{"ngap", "next generation application protocol"},
	{"sbi", "service based interface"},
	{"pcf", "policy control function"},
	{"udm", "unified data management"},
	{"ausf", "authentication server function"},
	{"qos", "quality of service"},
	{"quality of service", "qos"},
	{"ulcl", "uplink classifier"},
	{"gtpu", "gtp user plane tunnel"},
	{"gtp u", "gtp user plane tunnel"},
	{"pfcp", "packet forwarding control protocol"},
	{"sm", "session management"},
	{"mm", "mobility management"},
	{"cc", "call control"},
	{"ho", "handover"},
	{"handover", "ho"},
	{"xn", "xn interface handover"},
	{"n2", "n2 interface"},
	{"n1", "n1 interface nas"},
	{"n4", "n4 interface pfcp"},
	{"n11", "n11 interface smf"},
	{"nssai", "network slice selection assistance information"},
	{"snssai", "single network slice selection assistance information"},
	{"dnn", "data network name"},
	{"drop", "discard loss"},
	{"dropped", "discard loss"},
	{"loss", "drop discard"},
	{"throughput", "bytes data volume traffic"},
	{"traffic volume", "bytes throughput"},
	{"failure rate", "fail ratio"},
	{"success rate", "success ratio"},
	{"error", "failure fail"},
	{"latency", "delay duration time"},
	{"delay", "latency duration"},
	{"active", "current in progress"},
	{"attempts", "attempt initiated request"},
	{"paging", "page request"},
	{"subscriber", "ue user equipment"},
	{"subscribers", "ue user equipment"},
	{"attach", "registration"},
	{"detach", "deregistration"},
	{"tau", "tracking area update"},
	{"tracking area update", "tau"},
	{"service request", "service req procedure"},
	{"slice", "network slice nssai"},
	{"5g", "5g nr new radio"},
	{"gnb", "gnodeb base station"},
	{"gnodeb", "gnb base station"},
	{"cell", "gnodeb radio cell"},
	{"establishment", "establish setup create"},
	{"setup", "establishment create"},
	{"release", "teardown delete"},
	{"teardown", "release delete"},
	{"modification", "modify update"},
	{"discovery", "discover lookup"},
	{"heartbeat", "keepalive liveness"},
	{"keepalive", "heartbeat liveness"},
	{"ipsec", "ip security tunnel"},
	{"sa", "security association"},
	{"eap", "extensible authentication protocol"},
	{"smc", "security mode command"},
	{"security mode", "smc"},
	{"identity request", "identification"},
	{"rejected", "reject denial"},
	{"denied", "reject denial"},
	{"timeout", "timer expiry expired"},
	{"expired", "timeout timer expiry"},
	{"downlink", "dl"},
	{"dl", "downlink"},
	{"uplink", "ul"},
	{"ul", "uplink"},
}
