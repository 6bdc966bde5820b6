// Anonymizer example: demonstrates the §2 anonymization properties on
// real-looking pathnames — consistent mappings, shared prefixes and
// suffixes, and saved mapping tables, with the name features the
// analyses read (well-known names, markers, extensions) kept.
//
//	go run ./examples/anonymizer
package main

import (
	"bytes"
	"fmt"

	"repro/internal/anon"
)

func main() {
	a := anon.New(anon.DefaultConfig(2003))

	fmt.Println("paths share anonymized prefixes exactly as they share real ones:")
	for _, p := range []string{
		"home02/jsmith/inbox",
		"home02/jsmith/research-notes.txt",
		"home02/mdoe/inbox",
		"home02/mdoe/thesis/chapter1.tex",
		"home02/mdoe/thesis/chapter2.tex",
	} {
		fmt.Printf("  %-36s -> %s\n", p, a.Path(p))
	}

	fmt.Println("\nother suffixes map consistently; the analyses' extensions and markers survive:")
	for _, n := range []string{
		"budget.xls", "salaries.xls", "secret-project.c", "secret-project.h",
		"draft", "draft~", "draft,v", "#draft", "draft.lock",
	} {
		fmt.Printf("  %-18s -> %s\n", n, a.Name(n))
	}

	fmt.Println("\nwell-known names stay readable:")
	for _, n := range []string{"CVS", ".pinerc", "inbox", "lock", "Makefile"} {
		fmt.Printf("  %-10s -> %s\n", n, a.Name(n))
	}

	fmt.Println("\nUIDs map consistently; root stays root:")
	fmt.Printf("  uid 501 -> %d (again: %d)\n", a.UID(501), a.UID(501))
	fmt.Printf("  uid 0   -> %d\n", a.UID(0))

	// Save the tables and reload into a different anonymizer: the
	// mapping survives, so multi-file traces anonymize consistently.
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		panic(err)
	}
	b := anon.New(anon.DefaultConfig(9999)) // different seed
	if err := b.Load(&buf); err != nil {
		panic(err)
	}
	fmt.Println("\nafter saving and reloading the mapping tables:")
	fmt.Printf("  secret-project.c -> %s (same as before: %v)\n",
		b.Name("secret-project.c"), b.Name("secret-project.c") == a.Name("secret-project.c"))
}
