"""Subcircuit-library builder: the characterization flow of Fig. 3.

For every subcircuit kind the builder runs the same loop the paper
describes — *generate the netlist, synthesize (flatten), time it, power
it, measure it* — over a grid of topology variants and dimensions, and
files the resulting :class:`~repro.scl.lut.PPARecord` into the library's
LUTs.  Dimensions between grid points are interpolated at lookup time.

The characterized kinds and their primary dimensions:

==============  ======================  =============================
kind            variant                 dimension
==============  ======================  =============================
adder_tree      style-faN-reorder       number of summed rows
mult_mux        tg_nor/oai22/pg_1t      MCR
shift_adder     k<input_bits>           tree (adder-tree output) width
ofu             c<columns>              S&A word width
fuse_stage      s<shift>                input word width
wl_driver       drv<strength>           array width (wordline load)
bl_driver       drv<strength>           array rows (bitline load)
alignment       <format name>           lanes
memcell         cell name               (per-cell record)
==============  ======================  =============================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..signoff.corners import Corner as SignoffCorner

from ..power.estimator import estimate_power
from ..rtl.gen.addertree import generate_adder_tree
from ..rtl.gen.alignment import generate_alignment_unit
from ..rtl.gen.drivers import generate_bl_driver, generate_wl_driver
from ..rtl.gen.multiplier import generate_mult_mux
from ..rtl.gen.ofu import OFUConfig, generate_fuse_stage, generate_ofu
from ..rtl.gen.shiftadder import generate_shift_adder
from ..rtl.ir import Module
from ..rtl.netview import net_view
from ..spec import BF16, FP4, FP8
from ..sta.analysis import minimum_period_ns
from ..tech.process import GENERIC_40NM, Process
from ..tech.stdcells import StdCellLibrary, default_library
from .library import SubcircuitLibrary
from .lut import PPARecord

#: Characterization grids (kept modest: the LUT interpolates between).
TREE_SIZES = (8, 16, 32, 64, 128, 256)
TREE_STYLES: Tuple[Tuple[str, int], ...] = (
    ("rca", 0),
    ("cmp42", 0),
    ("mixed", 1),
    ("mixed", 2),
    ("mixed", 3),
)
MCR_VALUES = (1, 2, 4, 8)
SA_INPUT_BITS = (2, 3, 4, 5, 8, 9, 12, 16)
SA_TREE_WIDTHS = (3, 4, 5, 6, 7, 8, 9)
OFU_COLUMNS = (2, 4, 8, 16)
OFU_WIDTHS = (8, 12, 16, 20, 24)
FUSE_SHIFTS = (1, 2, 4, 8)
FUSE_WIDTHS = (8, 12, 16, 20, 24, 30)
DRIVER_STRENGTHS = (2, 4, 8)
DRIVER_DIMS = (16, 32, 64, 128, 256)
ALIGN_FORMATS = (FP4, FP8, BF16)
ALIGN_LANES = (8, 16, 32, 64)
MEMCELLS = ("DCIM6T", "DCIM8T", "DCIM12T", "RRAM_HYB", "SRAM6T")

#: Reference frequency used to convert power to per-cycle energy.
CHAR_FREQUENCY_MHZ = 1000.0


def grid_fingerprint() -> dict:
    """Canonical description of everything the builder sweeps: part of
    the persistent cache key (see :mod:`repro.scl.cache`), so editing a
    grid or the characterization stats invalidates cached artifacts."""
    return {
        "tree_sizes": list(TREE_SIZES),
        "tree_styles": [list(s) for s in TREE_STYLES],
        "mcr_values": list(MCR_VALUES),
        "sa_input_bits": list(SA_INPUT_BITS),
        "sa_tree_widths": list(SA_TREE_WIDTHS),
        "ofu_columns": list(OFU_COLUMNS),
        "ofu_widths": list(OFU_WIDTHS),
        "fuse_shifts": list(FUSE_SHIFTS),
        "fuse_widths": list(FUSE_WIDTHS),
        "driver_strengths": list(DRIVER_STRENGTHS),
        "driver_dims": list(DRIVER_DIMS),
        "align_formats": [
            [f.name, f.kind, f.bits, f.exponent, f.mantissa]
            for f in ALIGN_FORMATS
        ],
        "align_lanes": list(ALIGN_LANES),
        "memcells": list(MEMCELLS),
        "char_frequency_mhz": CHAR_FREQUENCY_MHZ,
        "char_port_stats": [
            [prefix, list(stats)] for prefix, stats in CHAR_PORT_STATS
        ],
    }


#: Workload-representative port statistics used during characterization
#: (prefix -> (one-probability, transition density)).  Product bits of a
#: half-sparse MAC toggle far less than the 0.5/0.5 default; weights are
#: quasi-static.  Keeping these in one table makes the SCL numbers agree
#: with full-macro power analysis under the same workload.
CHAR_PORT_STATS: Tuple[Tuple[str, Tuple[float, float]], ...] = (
    ("in[", (0.25, 0.25)),       # adder-tree product inputs
    ("xb", (0.5, 0.5)),          # serial input complements
    ("wb", (0.5, 0.0)),          # stored weights: static during MAC
    ("sel", (0.5, 0.0)),
    ("t[", (0.4, 0.35)),         # tree sums into the S&A
    ("a", (0.5, 0.35)),          # S&A words into the OFU
    ("lo[", (0.5, 0.35)),
    ("hi[", (0.5, 0.35)),
    ("sub", (0.2, 0.0)),
    ("neg", (0.2, 0.25)),
    ("clear", (0.2, 0.25)),
    ("we", (0.9, 0.05)),
    ("x[", (0.5, 0.5)),
    ("d[", (0.5, 0.25)),
    ("fp", (0.5, 0.5)),
)


#: Port-name -> NetActivity-or-None resolution cache (port names repeat
#: heavily across characterized modules: ``in[3]``, ``x[7]``, ...).
_PORT_STAT_CACHE: dict = {}
_PORT_STAT_MISS = object()


def _char_input_stats(module: Module):
    from ..power.activity import NetActivity

    stats = {}
    cache_get = _PORT_STAT_CACHE.get
    for net in module.input_ports:
        hit = cache_get(net, _PORT_STAT_MISS)
        if hit is _PORT_STAT_MISS:
            hit = None
            for prefix, (p, d) in CHAR_PORT_STATS:
                if net.startswith(prefix):
                    hit = NetActivity(p, d)
                    break
            _PORT_STAT_CACHE[net] = hit
        if hit is not None:
            stats[net] = hit
    return stats


def characterize_module(
    module: Module,
    library: StdCellLibrary,
    process: Process,
    stage_delays: Tuple[float, ...] = (),
    corner: Optional["SignoffCorner"] = None,
) -> PPARecord:
    """Flatten + STA + power + area for one generated subcircuit.

    With ``corner`` (a :class:`repro.signoff.Corner`), timing runs with
    the corner's composed derate inside the STA — a real corner
    characterization, not a post-hoc scaling of the nominal record —
    and the energy/leakage terms carry the corner's supply and
    temperature factors.
    """
    flat = module if module.is_flat else module.flatten()
    flat.validate(library)
    derate = 1.0 if corner is None else corner.timing_derate(process)
    delay = minimum_period_ns(flat, library, derate=derate)
    power = estimate_power(
        flat,
        library,
        process,
        CHAR_FREQUENCY_MHZ,
        input_stats=_char_input_stats(flat),
    )
    energy_pj = power.energy_per_cycle_pj
    leakage_mw = power.leakage_mw
    if corner is not None:
        energy_pj *= corner.energy_scale(process)
        leakage_mw *= corner.leakage_scale(process)
    view = net_view(flat, library)
    return PPARecord(
        delay_ns=delay,
        energy_pj=energy_pj,
        area_um2=sum(g.cell.area_um2 * len(g) for g in view.groups),
        leakage_mw=leakage_mw,
        cells=view.n_instances,
        stage_delays_ns=stage_delays,
    )


def tree_variant(style: str, fa_levels: int, carry_reorder: bool) -> str:
    if style == "mixed" and fa_levels == 0:
        # Structurally identical: zero FA levels degenerates to the pure
        # compressor tree.
        style = "cmp42"
    tag = "r" if carry_reorder else "n"
    return f"{style}-fa{fa_levels}-{tag}"


def build_default_scl(
    library: Optional[StdCellLibrary] = None,
    process: Optional[Process] = None,
    tree_sizes: Iterable[int] = TREE_SIZES,
    corner: Optional["SignoffCorner"] = None,
) -> SubcircuitLibrary:
    """Characterize the full default grid.  Takes a few seconds; callers
    normally go through :func:`repro.scl.library.default_scl`, which
    caches the result per (process, corner).

    ``corner`` characterizes the whole grid at one signoff operating
    point (derated STA, corner supply/temperature energy and leakage) —
    the library the searcher prices SS-corner slack from."""
    library = library or default_library()
    process = process or GENERIC_40NM
    scl = SubcircuitLibrary(process=process, cell_library=library,
                            corner=corner)

    # Adder trees.  The RCA builder takes no carry-reorder decision
    # (``_build_rca_tree`` never sees the flag), so the ``-r``/``-n``
    # variants of the pure ripple tree are the same netlist — they are
    # characterized once and the record shared.
    tree_cache: dict = {}
    for style, fa in TREE_STYLES:
        for reorder in (True, False):
            variant = tree_variant(style, fa, reorder)
            for n in tree_sizes:
                key = (style, fa, n, reorder if style != "rca" else False)
                rec = tree_cache.get(key)
                if rec is None:
                    mod, _ = generate_adder_tree(n, style, fa, reorder)
                    rec = tree_cache[key] = characterize_module(
                        mod, library, process, corner=corner
                    )
                scl.table("adder_tree").add(variant, n, rec)

    # Multiplier/multiplexer rows (record is per row).
    for style in ("tg_nor", "oai22", "pg_1t"):
        for mcr in MCR_VALUES:
            if style == "oai22" and mcr > 2:
                continue
            mod = generate_mult_mux(mcr, style)
            rec = characterize_module(mod, library, process,
                                      corner=corner)
            scl.table("mult_mux").add(style, mcr, rec)

    # Shift-and-add.
    for k in SA_INPUT_BITS:
        variant = f"k{k}"
        for tw in SA_TREE_WIDTHS:
            mod = generate_shift_adder(tw, k)
            rec = characterize_module(mod, library, process,
                                      corner=corner)
            scl.table("shift_adder").add(variant, tw, rec)

    # OFU (combinational, registers priced separately by the estimator)
    # and standalone fusion stages for retiming arithmetic — both adder
    # styles, so the searcher has a "faster adder" to reach for.
    #
    # The per-stage characterizations repeat heavily across OFU column
    # counts and widths (100 stage evaluations collapse onto 40 distinct
    # (width, shift, style) triples, 12 of which the fuse_stage grid
    # characterizes anyway); generation and characterization are
    # deterministic, so identical triples share one record.
    fuse_cache: dict = {}

    def fuse_record(width: int, shift: int, style: str) -> PPARecord:
        key = (width, shift, style)
        rec = fuse_cache.get(key)
        if rec is None:
            smod = generate_fuse_stage(width, shift, adder_style=style)
            rec = fuse_cache[key] = characterize_module(
                smod, library, process, corner=corner
            )
        return rec

    for style in ("ripple", "csel"):
        tag = "rpl" if style == "ripple" else "csel"
        for cols in OFU_COLUMNS:
            variant = f"c{cols}-{tag}"
            stages = cols.bit_length() - 1
            for w in OFU_WIDTHS:
                cfg = OFUConfig(columns=cols, input_width=w, adder_style=style)
                mod = generate_ofu(cfg)
                stage_delays = []
                for s in range(1, stages + 1):
                    sw = cfg.stage_width(s - 1)
                    shift = 1 << (s - 1)
                    stage_delays.append(fuse_record(sw, shift, style).delay_ns)
                rec = characterize_module(
                    mod, library, process,
                    stage_delays=tuple(stage_delays), corner=corner
                )
                scl.table("ofu").add(variant, w, rec)

        for shift in FUSE_SHIFTS:
            variant = f"s{shift}-{tag}"
            for w in FUSE_WIDTHS:
                rec = fuse_record(w, shift, style)
                scl.table("fuse_stage").add(variant, w, rec)

    # Drivers: characterized per 4 rows/cols, stored per unit.
    unit = 4
    for strength in DRIVER_STRENGTHS:
        for width in DRIVER_DIMS:
            wl_load = width * (0.25 + 1.05 * process.wire_cap_ff_per_um)
            mod = generate_wl_driver(unit, wl_load, strength)
            rec = characterize_module(
                mod, library, process, corner=corner
            ).scaled(1.0 / unit)
            scl.table("wl_driver").add(f"drv{strength}", width, rec)
        for rows in DRIVER_DIMS:
            bl_load = rows * (0.30 + 1.0 * process.wire_cap_ff_per_um)
            mod = generate_bl_driver(unit, bl_load, strength)
            rec = characterize_module(
                mod, library, process, corner=corner
            ).scaled(1.0 / unit)
            scl.table("bl_driver").add(f"drv{strength}", rows, rec)

    # FP/INT alignment units.
    for fmt in ALIGN_FORMATS:
        for lanes in ALIGN_LANES:
            mod = generate_alignment_unit(fmt, lanes)
            rec = characterize_module(mod, library, process,
                                      corner=corner)
            scl.table("alignment").add(fmt.name, lanes, rec)

    # Memory bitcells (closed-form, per cell; the corner factors apply
    # to the same three quantities the STA/power path derates).
    mem_derate = 1.0 if corner is None else corner.timing_derate(process)
    mem_e = 1.0 if corner is None else corner.energy_scale(process)
    mem_l = 1.0 if corner is None else corner.leakage_scale(process)
    for name in MEMCELLS:
        cell = library.cell(name)
        scl.table("memcell").add(
            name,
            1,
            PPARecord(
                delay_ns=cell.arcs[0].d0_ns * mem_derate,
                energy_pj=cell.internal_energy_fj.get("RD", 0.2)
                * 1e-3 * mem_e,
                area_um2=cell.area_um2,
                leakage_mw=cell.leakage_nw * 1e-6 * mem_l,
                cells=1,
            ),
        )

    scl.seal()
    return scl
