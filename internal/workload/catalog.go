// Package workload provides the paper's dataset catalogue (Table I), its
// large-ML-model catalogue (Table IV), and synthetic workload generators for
// the three DHL application settings of §II-D: experimental physics bursts,
// data-centre bulk backups, and ML training ingest.
package workload

import (
	"fmt"

	"repro/internal/units"
)

// DatasetKind categorises Table I rows.
type DatasetKind string

// Dataset kinds from Table I.
const (
	KindImages   DatasetKind = "Images"
	KindVideos   DatasetKind = "Videos"
	KindNLP      DatasetKind = "NLP"
	KindWebCrawl DatasetKind = "Web Crawl"
	KindML       DatasetKind = "ML"
	KindGenomics DatasetKind = "Genomics"
	KindPhysics  DatasetKind = "Physics"
	KindBigData  DatasetKind = "BigData"
)

// Dataset is one Table I row: either a static dataset (Size > 0) or a data
// creation rate (Rate > 0).
type Dataset struct {
	Name string
	Kind DatasetKind
	// Size of a static dataset.
	Size units.Bytes
	// Rate of a data-creation source (bytes/second).
	Rate units.BytesPerSecond
}

// Streaming reports whether this entry is a creation-rate source.
func (d Dataset) Streaming() bool { return d.Rate > 0 }

// String summarises the entry.
func (d Dataset) String() string {
	if d.Streaming() {
		return fmt.Sprintf("%s (%s, %v)", d.Name, d.Kind, d.Rate)
	}
	return fmt.Sprintf("%s (%s, %v)", d.Name, d.Kind, d.Size)
}

// Table I catalogue. Rates given per day in the paper are converted to
// bytes/second; YouTube's daily videos use the paper's 1 h ≈ 1 GiB
// conversion (0.7–1.44 PB/day; we carry the midpoint).
var (
	LAION5B        = Dataset{Name: "LAION-5B", Kind: KindImages, Size: 250 * units.TB}
	YouTube8M      = Dataset{Name: "YouTube-8M", Kind: KindVideos, Size: units.Bytes(350_000) * units.GiB}
	MassiveText    = Dataset{Name: "Massive Text", Kind: KindNLP, Size: 10.25 * units.TB}
	CommonCrawl    = Dataset{Name: "Common Crawl", Kind: KindWebCrawl, Size: 9 * units.PB}
	MetaML29PB     = Dataset{Name: "Meta ML (largest)", Kind: KindML, Size: 29 * units.PB}
	MetaML13PB     = Dataset{Name: "Meta ML (mid)", Kind: KindML, Size: 13 * units.PB}
	MetaML3PB      = Dataset{Name: "Meta ML (small)", Kind: KindML, Size: 3 * units.PB}
	NIHGenomes     = Dataset{Name: "NIH 100k Genomes", Kind: KindGenomics, Size: 17 * units.PB}
	LHCCMSDetector = Dataset{Name: "LHC CMS Detector", Kind: KindPhysics, Rate: 150 * units.TBps}
	MetaDaily      = Dataset{Name: "Meta new daily data", Kind: KindBigData, Rate: units.BytesPerSecond(float64(4*units.PB) / 86400)}
	YouTubeDaily   = Dataset{Name: "YouTube new daily videos", Kind: KindVideos, Rate: units.BytesPerSecond(float64(1.07*units.PB) / 86400)}
)

// BytesPerParam is the paper's Table IV conversion: one parameter = 32 bits.
const BytesPerParam = 4

// Model is one Table IV row.
type Model struct {
	Name   string
	Params float64 // parameter count
	From   string
	Year   int
}

// Size is the model's storage footprint at 32-bit parameters.
func (m Model) Size() units.Bytes { return units.Bytes(m.Params * BytesPerParam) }

// String summarises the model.
func (m Model) String() string {
	return fmt.Sprintf("%s (%s %d, %.3g params, %v)", m.Name, m.From, m.Year, m.Params, m.Size())
}

// Table IV catalogue.
var (
	GPT3        = Model{Name: "GPT-3", Params: 175e9, From: "OpenAI", Year: 2020}
	Jurassic1   = Model{Name: "Jurassic-1", Params: 178e9, From: "A21 labs", Year: 2021}
	Gopher      = Model{Name: "Gopher", Params: 280e9, From: "Google", Year: 2021}
	M610T       = Model{Name: "M6-10T", Params: 10e12, From: "Alibaba", Year: 2021}
	MegatronNLG = Model{Name: "Megatron-Turing NLG", Params: 1e12, From: "MSFT&NVDA", Year: 2022}
	DLRM2022    = Model{Name: "DLRM 2022", Params: 12e12, From: "Meta", Year: 2022}
)
