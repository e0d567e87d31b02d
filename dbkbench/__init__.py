"""A benchmark of what users of the knowledge-base system wait on."""
