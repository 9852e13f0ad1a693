"""SynDCIM reproduction: a performance-aware digital computing-in-memory
(DCIM) compiler with multi-spec-oriented subcircuit synthesis.

Reproduces *SynDCIM* (DATE 2025, arXiv:2411.16806) as a pure-Python
library: from a :class:`~repro.spec.MacroSpec` the compiler searches a
subcircuit library, synthesizes Pareto-optimal macro candidates, and
implements the selected one through synthesis, structured-data-path
placement, routing estimation and signoff-style timing/power analysis.

Quickstart::

    from repro import MacroSpec, SynDCIM

    spec = MacroSpec(height=64, width=64, mcr=2, mac_frequency_mhz=800.0)
    compiler = SynDCIM()
    result = compiler.compile(spec)
    print(result.report())

Stable API
----------
The names re-exported here — :class:`MacroSpec`, :class:`SynDCIM`,
:class:`BatchCompiler`, :class:`CompileOptions`,
:class:`ImplementSession`, :func:`verify_macro`,
:func:`multi_corner_signoff`, :class:`ServiceClient`, the data formats
and the exception hierarchy — are the blessed surface: they keep
working across minor versions, and anything reachable only through a
submodule path is internal and may move without notice.  New code
should steer compilation through :class:`CompileOptions` (the one
canonical spelling of corners/vt/verify/seed across the library, the
CLI and the HTTP service) rather than per-call keyword soup.
"""

from .spec import (
    BF16,
    FP4,
    FP8,
    INT1,
    INT2,
    INT4,
    INT8,
    DataFormat,
    MacroSpec,
    PPAWeights,
    parse_format,
    spec_from_strings,
)
from .arch import MacroArchitecture, architecture_space, default_architecture
from .errors import (
    BatchError,
    LayoutError,
    LibraryError,
    SearchError,
    ServiceError,
    SimulationError,
    SpecificationError,
    SynDCIMError,
    SynthesisError,
    TimingError,
)
from .options import CompileOptions

__version__ = "1.1.0"

__all__ = [
    "BF16",
    "FP4",
    "FP8",
    "INT1",
    "INT2",
    "INT4",
    "INT8",
    "DataFormat",
    "MacroSpec",
    "PPAWeights",
    "parse_format",
    "spec_from_strings",
    "MacroArchitecture",
    "architecture_space",
    "default_architecture",
    "BatchError",
    "LayoutError",
    "LibraryError",
    "SearchError",
    "ServiceError",
    "SimulationError",
    "SpecificationError",
    "SynDCIMError",
    "SynthesisError",
    "TimingError",
    "CompileOptions",
    "SynDCIM",
    "BatchCompiler",
    "ImplementSession",
    "ServiceClient",
    "verify_macro",
    "multi_corner_signoff",
    "__version__",
]


def __getattr__(name: str):
    """Lazy re-exports: these pull heavy stacks (numpy, the batch
    engine) or would create import cycles, so they resolve on first
    touch — ``from repro import ServiceClient`` stays cheap in a thin
    client process."""
    if name == "SynDCIM":
        from .compiler.syndcim import SynDCIM

        return SynDCIM
    if name == "BatchCompiler":
        from .batch.engine import BatchCompiler

        return BatchCompiler
    if name == "ImplementSession":
        from .compiler.flow import ImplementSession

        return ImplementSession
    if name == "ServiceClient":
        from .service.client import ServiceClient

        return ServiceClient
    if name == "verify_macro":
        from .verify.harness import verify_macro

        return verify_macro
    if name == "multi_corner_signoff":
        from .signoff.evaluate import multi_corner_signoff

        return multi_corner_signoff
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
