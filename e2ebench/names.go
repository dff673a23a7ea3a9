package main

import "fmt"

// validName reports whether s is a metric or workload name: a letter or
// digit first, then at most 63 more letters, digits, '_', '.' or '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 || !isAlnum(s[0]) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !isAlnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a unit: 1 to 16 letters, digits, '_',
// '/', '%', '.' or '-', as in "ms", "req/s" or "FPS/W".
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !isAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// checkNames rejects a metric map with a malformed name or unit, so a
// typo fails the run instead of producing a result no tool can read.
func checkNames(m map[string]metric) error {
	for k, v := range m {
		if !validName(k) {
			return fmt.Errorf("metric name %q breaks the name grammar", k)
		}
		if !validUnit(v.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", k, v.Unit)
		}
	}
	return nil
}
