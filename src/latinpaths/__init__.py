"""Elementary path and circuit enumeration over the semiring of
distinguished languages.

The package root exports nothing; import the modules: `graph`,
`enumeration`, `bruteforce`, `cli`, `reference`, `semiring`, `languages`,
`words`.  The last four are the executable reference, which only the
`words` command and the tests load."""
