package main

import (
	"fmt"
	"io"
	"log"
	"strconv"
)

// goldens are the digests of the simulated statistics (campus Result,
// ShuttleResult and Stats, the serve plan's op durations) at fixed seeds.
// A change that only makes the code faster leaves every one unchanged; a
// deliberate model change regenerates them with `dhlbench goldens`. Seeds
// without an entry are checked for agreement between reps only.
var goldens = map[string]string{
	"campus-chaos/0":    "305fc72c8ddf5161dcd097400835b231",
	"campus-chaos/1":    "d7dac9537d8264bd47ef0e9ce1bce83c",
	"campus-chaos/2":    "728a509d6970de843f3f13690a35a512",
	"campus-chaos/3":    "07d5b18723aac80ed03c20b0859b472c",
	"campus-chaos/4":    "24ddc22c724dfe7f50ba8bcbb0f02dad",
	"campus-chaos/5":    "0d2e7221273f55d778ef433ac1d34c21",
	"campus-chaos/6":    "bb37eab9ac252ebcf3f608bd86b1bfa5",
	"campus-chaos/7":    "c0f7e1929e8e5c97090e478cd8e92de8",
	"campus-chaos/8":    "b3c2980c3200b9e8ddbd105a8f671577",
	"campus-chaos/9":    "70919d8814d22106ba0ceacd4bc35cce",
	"campus-chaos/10":   "547a15855369ae2b9e7b0d34915a31e6",
	"campus-calm/0":     "dd3bdd64ce8411f3148a8f485cb2fc63",
	"campus-calm/1":     "c4de7c116de64398ce50880ac6bb980d",
	"campus-calm/2":     "061582fd599060bfd7bbfc5734fccd18",
	"campus-calm/3":     "c0cc4551a40003cf9e90ca6cc0c36cb5",
	"campus-calm/4":     "cf152d38776b950fcd0fdbdc05f612ab",
	"campus-calm/5":     "7ee2dd5a5f6b80eef9fe9c738b8b9677",
	"campus-calm/6":     "918388058f291a10e1050331ca7c4285",
	"campus-calm/7":     "59299a80b09b58efac8c70492570ce50",
	"campus-calm/8":     "62818960132aa15cba9100c3e04d349c",
	"campus-calm/9":     "85918212a4dbc03242c8d2dd52a79ad4",
	"campus-calm/10":    "3b2dfcc4df29781196945f525fbdda38",
	"shuttle-bulk/0":    "b3c1228b477bcba6401c9a01c310bd77",
	"shuttle-bulk/1":    "0046c3a1285830c1670529e00ae1cdb1",
	"shuttle-bulk/2":    "019db20dfe3a3aea878f68d3a385544c",
	"shuttle-bulk/3":    "51d0cfd4432d524b120d7c639a2cd274",
	"shuttle-bulk/4":    "67eee664451aa70bc39b154709c9249d",
	"shuttle-bulk/5":    "c209819ce8d338b46b9845ab1b3af049",
	"shuttle-bulk/6":    "21eaf7af3b04331c6bdaa27096a22932",
	"shuttle-bulk/7":    "32c5a6bf37b3d3e0c42e9c959fd5f101",
	"shuttle-bulk/8":    "80e9ab058686c81b2ce1b46df39862cf",
	"shuttle-bulk/9":    "fa75f1c26a80fe9dd8c0b074056f914e",
	"shuttle-bulk/10":   "fe2ab8d73dfa8e38c650eda25c081497",
	"serve-loopback/0":  "0695f0951b67ed0cb2aef4c352a0161b",
	"serve-loopback/1":  "0374c1c64dc631d328b050b0607d3e31",
	"serve-loopback/2":  "e738eda84f705a9f005d0b83eed5a2ed",
	"serve-loopback/3":  "b7f561196d4ebc2e46d81ec3339ee576",
	"serve-loopback/4":  "539d1f27066ff17a321d7222a77efe36",
	"serve-loopback/5":  "29bccf9e9d850dade57750f399bdb0ab",
	"serve-loopback/6":  "01b82936e27075db20774e27436fd1b8",
	"serve-loopback/7":  "d4e65e62c4356d3ea7a1f0538099b57c",
	"serve-loopback/8":  "eb06571d6ef37ff2ed10b64328ccef6b",
	"serve-loopback/9":  "cbc463feb61f960dcfb35cf934cfc6a2",
	"serve-loopback/10": "a795f77979311a8ede39666e68b72b84",
}

func goldenKey(workload string, seed int64) string {
	return workload + "/" + strconv.FormatInt(seed, 10)
}

// goldenSeeds is the seed range the golden table covers.
const goldenSeeds = 11

// goldensCmd prints the golden table: every workload at seeds 0–10.
func goldensCmd(args []string, stdout io.Writer) int {
	if len(args) > 0 {
		log.Print("usage: dhlbench goldens")
		return 2
	}
	for _, w := range workloadsAt(fullSize) {
		for seed := int64(0); seed < goldenSeeds; seed++ {
			d, err := workloadDigest(w, seed)
			if err != nil {
				log.Printf("%s seed %d: %v", w.name, seed, err)
				return 1
			}
			fmt.Fprintf(stdout, "\t%q: %q,\n", goldenKey(w.name, seed), d)
		}
	}
	return 0
}

// workloadDigest computes w's digest at seed from one rep.
func workloadDigest(w workload, seed int64) (string, error) {
	if w.serve {
		d, _, err := planDigest(seed)
		return d, err
	}
	out, err := w.sim(seed).rep(nil)
	return out.digest, err
}
