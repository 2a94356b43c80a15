package cluster

import "testing"

// platforms are the paper's three.
func platforms() []Platform { return []Platform{Kraken(), Grid5000(), BluePrint()} }

func TestPresetsValid(t *testing.T) {
	for _, p := range platforms() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPaperTopology(t *testing.T) {
	kr := Kraken()
	if kr.CoresPerNode != 12 {
		t.Errorf("Kraken cores/node = %d, paper says 12", kr.CoresPerNode)
	}
	if kr.FS.MetadataServers != 1 {
		t.Error("Kraken Lustre must have a single MDS")
	}
	if kr.Nodes(9216) != 768 {
		t.Errorf("Nodes(9216) = %d", kr.Nodes(9216))
	}
	g5 := Grid5000()
	if g5.CoresPerNode != 24 {
		t.Errorf("parapluie cores/node = %d, paper says 24", g5.CoresPerNode)
	}
	if g5.FS.Targets != 15 {
		t.Errorf("PVFS servers = %d, paper says 15", g5.FS.Targets)
	}
	if g5.FS.LockCost != 0 {
		t.Error("PVFS must not lock")
	}
	bp := BluePrint()
	if bp.CoresPerNode != 16 {
		t.Errorf("BluePrint cores/node = %d, paper says 16", bp.CoresPerNode)
	}
	if bp.FS.MetadataServers != 2 {
		t.Error("GPFS deployed on 2 nodes")
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	mods := []func(*Platform){
		func(p *Platform) { p.CoresPerNode = 1 },
		func(p *Platform) { p.MaxCores = 1 },
		func(p *Platform) { p.NICBandwidth = 0 },
		func(p *Platform) { p.IterationSeconds = 0 },
		func(p *Platform) { p.BytesPerCore = 0 },
		func(p *Platform) { p.DamarisStripes = 0 },
		func(p *Platform) { p.FS.Targets = 0 },
	}
	for i, mod := range mods {
		p := Kraken()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestGridVolumeMatchesPaper(t *testing.T) {
	// 672 cores x 24 MB ≈ 15.8 GB per write phase (§IV-C1).
	g5 := Grid5000()
	total := g5.BytesPerCore * 672
	if total < 15.5e9 || total > 16.5e9 {
		t.Errorf("Grid'5000 phase volume = %.1f GB, paper 15.8 GB", total/1e9)
	}
}
