"""The test session is a configured caller, as the command line and the
benchmark are: mpmath runs at the package's precision between calls, so
references computed at mpmath's own precision match the values' bounds."""

import akzkit

akzkit.configure()
