package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// SaveConfig writes cfg to path as indented JSON, so an experiment's
// exact machine can be archived and replayed.
func SaveConfig(path string, cfg Config) error {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("machine: encoding config: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("machine: writing config: %w", err)
	}
	return nil
}

// LoadConfig reads a JSON config written by SaveConfig. Fields absent
// from the file keep the zero value, so start from DefaultConfig when
// writing configs by hand. Unknown fields are rejected — silently
// ignoring a typo in an experiment config corrupts results.
//
// Archived configs may carry a "Queue" key that once selected the
// kernel's event queue. Its values "", "heap" and "ladder" all give the
// same (time, seq) schedule the kernel now always runs, so they load
// and are ignored; any other value is rejected like an unknown field.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("machine: reading config: %w", err)
	}
	var file struct {
		Config
		Queue string
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return Config{}, fmt.Errorf("machine: parsing %s: %w", path, err)
	}
	switch file.Queue {
	case "", "heap", "ladder":
	default:
		return Config{}, fmt.Errorf("machine: parsing %s: unknown event queue %q", path, file.Queue)
	}
	return file.Config, nil
}
