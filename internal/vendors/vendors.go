// Package vendors addresses the paper's §5.1 challenge — "diverse network
// function vendor formats": every virtualised NF vendor ships its own
// metric naming scheme and documentation style, and integrating them is a
// barrier for operators. The package models a second vendor whose catalog
// uses a camelCase naming convention and differently-phrased documentation,
// a deterministic translator between canonical and vendor-specific
// catalogs, and a merger that builds one domain-specific database spanning
// vendors — demonstrating the paper's thesis that a documentation-grounded
// copilot absorbs format diversity without code changes.
package vendors

import (
	"fmt"
	"strings"

	"dio/internal/catalog"
)

// Vendor describes one vNF provider's metric format.
type Vendor struct {
	// ID tags the vendor ("vendor-b").
	ID string
	// rename maps a canonical metric name to the vendor's spelling.
	rename func(string) string
	// rephrase produces the vendor's documentation for a canonical metric.
	rephrase func(*catalog.Metric) string
}

// Rename maps a canonical metric name into this vendor's convention.
func (v *Vendor) Rename(name string) string { return v.rename(name) }

// variantAbbrevB is vendor B's suffix convention.
var variantAbbrevB = map[string]string{
	"attempt": "Att", "success": "Succ", "failure": "Fail",
	"timeout": "Tmo", "reject": "Rej", "abort": "Abo",
	"retransmission": "Rtx", "request": "Req",
}

// VendorB returns the synthetic second vendor: camelCase names with
// abbreviated lifecycle suffixes ("amfcc_n1_auth_attempt" becomes
// "amfCcN1AuthAtt") and telegraphic documentation.
func VendorB() *Vendor {
	return &Vendor{
		ID: "vendor-b",
		rename: func(name string) string {
			parts := strings.Split(name, "_")
			var b strings.Builder
			for i, p := range parts {
				if ab, ok := variantAbbrevB[p]; ok && i == len(parts)-1 {
					b.WriteString(ab)
					continue
				}
				if i == 0 {
					// Split the fused nf+service prefix for camel casing:
					// amfcc → amfCc.
					p = splitPrefix(p)
					b.WriteString(p)
					continue
				}
				b.WriteString(strings.ToUpper(p[:1]) + p[1:])
			}
			return b.String()
		},
		rephrase: func(m *catalog.Metric) string {
			nf := strings.ToUpper(m.NF)
			long := catalog.NFLongNames[m.NF]
			subject := subjectPhrase(m)
			switch m.Type {
			case catalog.Gauge:
				return fmt.Sprintf("Current level of %s on the %s element (%s). Type: LEVEL.", subject, nf, long)
			case catalog.HistogramBucket, catalog.HistogramSum, catalog.HistogramCount:
				return fmt.Sprintf("Latency distribution statistic for %s on the %s element. Type: DIST.", subject, nf)
			default:
				return fmt.Sprintf("Peg counter. Incremented for each %s on the %s element (%s). Type: PEG, 64-bit.", subject, nf, long)
			}
		},
	}
}

// splitPrefix turns a fused nf+service prefix into camel form: amfcc →
// amfCc, smfsm → smfSm, n3iwfike → n3iwfIke. It relies on the known NF
// names to find the boundary.
func splitPrefix(p string) string {
	for _, nf := range catalog.NFNames() {
		if strings.HasPrefix(p, nf) && len(p) > len(nf) {
			svc := p[len(nf):]
			return nf + strings.ToUpper(svc[:1]) + svc[1:]
		}
	}
	return p
}

// subjectPhrase recovers the human phrase a metric measures, preferring
// the procedure phrase from the canonical tables.
func subjectPhrase(m *catalog.Metric) string {
	if m.Procedure != "" {
		for _, p := range catalog.Procedures() {
			if p.NF == m.NF && p.Service == m.Service && p.Slug == m.Procedure {
				if m.Variant != "" && !strings.HasPrefix(m.Variant, "duration") {
					return p.Phrase + " " + strings.ReplaceAll(m.Variant, "_", " ")
				}
				return p.Phrase
			}
		}
	}
	// Fall back to the leading words of the canonical description.
	d := m.Description
	if i := strings.IndexByte(d, '.'); i > 0 {
		d = d[:i]
	}
	d = strings.TrimPrefix(d, "The number of ")
	return d
}

// Translation is the output of translating a catalog into a vendor format.
type Translation struct {
	// Catalog is the vendor-format domain-specific database.
	Catalog *catalog.Database
	// ToVendor maps canonical names to vendor names.
	ToVendor map[string]string
	// ToCanonical is the inverse mapping.
	ToCanonical map[string]string
}

// Translate builds the vendor-format catalog from the canonical one. Every
// metric keeps its semantics (NF, procedure, type) but carries the
// vendor's name and documentation, so a copilot built over the translated
// catalog serves a deployment of that vendor.
func Translate(src *catalog.Database, v *Vendor) (*Translation, error) {
	tr := &Translation{
		ToVendor:    make(map[string]string, len(src.Metrics)),
		ToCanonical: make(map[string]string, len(src.Metrics)),
	}
	metrics := make([]*catalog.Metric, 0, len(src.Metrics))
	for _, m := range src.Metrics {
		name := v.Rename(m.Name)
		if prev, dup := tr.ToCanonical[name]; dup {
			return nil, fmt.Errorf("vendors: %s name collision: %s and %s both map to %s", v.ID, prev, m.Name, name)
		}
		tr.ToVendor[m.Name] = name
		tr.ToCanonical[name] = m.Name
		cp := *m
		cp.Name = name
		cp.Description = v.rephrase(m)
		metrics = append(metrics, &cp)
	}
	// Bespoke functions are vendor-neutral recipes; carry them over.
	tr.Catalog = catalog.NewDatabase(metrics, src.Functions)
	return tr, nil
}
