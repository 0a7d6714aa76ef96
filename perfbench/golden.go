package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"bluefi"
)

// goldenVector is one entry of testdata/golden_psdus.json.
type goldenVector struct {
	Chip        string `json:"chip"`
	Mode        string `json:"mode"`
	BLEChannel  int    `json:"bleChannel"`
	WiFiChannel int    `json:"wifiChannel"`
	PSDU        string `json:"psduHex"`
}

// checkGolden re-synthesizes the committed BLE channel 38 / WiFi
// channel 3 golden vectors (both chips × both modes) through the public
// API and fails on any byte difference. The beacon is the one the
// vectors were generated from.
func checkGolden(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden vectors: %w", err)
	}
	var vectors []goldenVector
	if err := json.Unmarshal(data, &vectors); err != nil {
		return fmt.Errorf("golden vectors: %w", err)
	}
	chips := map[string]bluefi.ChipModel{"AR9331": bluefi.AR9331, "RTL8811AU": bluefi.RTL8811AU}
	modes := map[string]bluefi.Mode{"Quality": bluefi.Quality, "RealTime": bluefi.RealTime}
	ad := bluefi.IBeacon{Major: 0xB1, Minor: 0xF1}.ADStructures()
	addr := [6]byte{0xBF, 0x01, 0x02, 0x03, 0x04, 0x05}
	checked := 0
	for _, v := range vectors {
		if v.BLEChannel != 38 || v.WiFiChannel != 3 {
			continue
		}
		chip, okChip := chips[v.Chip]
		mode, okMode := modes[v.Mode]
		if !okChip || !okMode {
			return fmt.Errorf("golden vector %s/%s: unknown chip or mode", v.Chip, v.Mode)
		}
		want, err := hex.DecodeString(v.PSDU)
		if err != nil {
			return fmt.Errorf("golden vector %s/%s: %w", v.Chip, v.Mode, err)
		}
		syn, err := bluefi.New(bluefi.Options{Chip: chip, Mode: mode, WiFiChannel: v.WiFiChannel})
		if err != nil {
			return err
		}
		pkt, err := syn.Beacon(ad, addr, v.BLEChannel)
		if err != nil {
			return fmt.Errorf("golden vector %s/%s: %w", v.Chip, v.Mode, err)
		}
		if !bytes.Equal(pkt.PSDU, want) {
			return fmt.Errorf("golden vector %s/%s: PSDU differs from the committed bytes", v.Chip, v.Mode)
		}
		checked++
	}
	if checked != len(chips)*len(modes) {
		return fmt.Errorf("golden vectors: found %d of the %d channel 38/3 vectors", checked, len(chips)*len(modes))
	}
	return nil
}
