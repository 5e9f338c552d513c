"""Elementary path and circuit enumeration over the semiring of
distinguished languages.

The package root exports nothing; import the modules: `graph`,
`enumeration`, `bruteforce`, `cli`, `semiring`, `languages`, `words`."""
