"""Structural RTL/netlist intermediate representation.

The paper's flow produces "architecture RTL, subcircuit RTL and netlist"
(Fig. 2).  This IR covers both levels with one set of classes:

* a :class:`Module` owns scalar nets, ports and instances;
* an :class:`Instance` references either a library cell (leaf) or
  another :class:`Module` (hierarchy);
* :meth:`Module.flatten` elaborates the hierarchy into a pure-leaf
  netlist that synthesis, STA, power, layout and gate-level simulation
  all consume.

Nets are scalar; buses are name conventions (``name[i]``) produced by
:func:`bus`.  A :class:`NetlistBuilder` provides the ergonomic layer the
RTL generators use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SynthesisError
from ..tech.stdcells import StdCellLibrary

#: Name of the implicit constant-zero / constant-one nets.
CONST0 = "tie0_net"
CONST1 = "tie1_net"


def bus(name: str, width: int, msb_first: bool = False) -> List[str]:
    """Scalar net names for an indexed bus, LSB first by default."""
    names = [f"{name}[{i}]" for i in range(width)]
    return names[::-1] if msb_first else names


@dataclass
class Port:
    """A module port bound to a net of the same name."""

    name: str
    direction: str  # "input" | "output"

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output"):
            raise SynthesisError(f"bad port direction {self.direction!r}")


@dataclass(slots=True)
class Instance:
    """An instantiation of a cell or submodule.

    ``conn`` maps the referenced object's pin/port names to net names in
    the parent module.
    """

    name: str
    ref: Union[str, "Module"]
    conn: Dict[str, str]

    @property
    def is_leaf(self) -> bool:
        return isinstance(self.ref, str)

    @property
    def cell_name(self) -> str:
        if not isinstance(self.ref, str):
            raise SynthesisError(f"instance {self.name} is hierarchical")
        return self.ref

    @property
    def module(self) -> "Module":
        if isinstance(self.ref, str):
            raise SynthesisError(f"instance {self.name} is a leaf")
        return self.ref


class Module:
    """A netlist module: ports, nets and instances."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ports: Dict[str, Port] = {}
        self.nets: Dict[str, None] = {}  # insertion-ordered set
        self.instances: List[Instance] = []
        self.clock_nets: Tuple[str, ...] = ()
        self._instance_names: Dict[str, None] = {}
        self._revision = 0
        # (first, last) revision of the latest run of set_refs edits.
        self._ref_edits = (-1, -1)
        # (revision, entries, [(child, template)]) — see _leaf_template.
        self._leaf_template_cache: Optional[tuple] = None

    @property
    def revision(self) -> int:
        """Mutation counter: bumped by every structural change, so caches
        keyed on a module (flatten templates, compiled net views) can
        detect staleness without hashing the netlist."""
        return self._revision

    # -- construction -----------------------------------------------------

    def add_net(self, name: str) -> str:
        if name not in self.nets:
            self.nets[name] = None
            self._revision += 1
        return name

    def add_port(self, name: str, direction: str) -> str:
        if name in self.ports:
            if self.ports[name].direction != direction:
                raise SynthesisError(
                    f"{self.name}: port {name} redeclared with other direction"
                )
            return name
        self.ports[name] = Port(name, direction)
        self._revision += 1
        self.add_net(name)
        return name

    def add_instance(
        self, name: str, ref: Union[str, "Module"], conn: Mapping[str, str]
    ) -> Instance:
        if name in self._instance_names:
            raise SynthesisError(f"{self.name}: duplicate instance {name}")
        inst = Instance(name=name, ref=ref, conn=dict(conn))
        for net in inst.conn.values():
            self.add_net(net)
        self.instances.append(inst)
        self._instance_names[name] = None
        self._revision += 1
        return inst

    def _add_instance_unchecked(
        self, name: str, ref: Union[str, "Module"], conn: Dict[str, str]
    ) -> Instance:
        """Construction fast path: takes ownership of ``conn`` (no
        defensive copy — the saving that matters).  The duplicate-name
        guard stays: builder-counter names share a namespace with
        manually added instances (e.g. the controller's ``busy_reg``)."""
        if name in self._instance_names:
            raise SynthesisError(f"{self.name}: duplicate instance {name}")
        inst = Instance(name=name, ref=ref, conn=conn)
        nets = self.nets
        for net in conn.values():
            if net not in nets:
                nets[net] = None
        self.instances.append(inst)
        self._instance_names[name] = None
        self._revision += 1
        return inst

    def set_refs(self, edits: Iterable[Tuple[Instance, str]]) -> None:
        """Point leaf instances at other cells, connections untouched.

        The one way to re-flavor or resize cells in place: the revision
        bump is recorded as ref-only, so the compiled net view is
        re-resolved on its unchanged net ids and pin rows instead of
        re-walking the module (see :func:`repro.rtl.netview.net_view`).
        """
        for inst, ref in edits:
            inst.ref = ref
        first, last = self._ref_edits
        if last != self._revision:
            first = self._revision
        self._revision += 1
        self._ref_edits = (first, self._revision)

    def set_clocks(self, nets: Sequence[str]) -> None:
        for n in nets:
            self.add_net(n)
        self.clock_nets = tuple(nets)
        self._revision += 1

    # -- queries ------------------------------------------------------------

    @property
    def input_ports(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.ports.values() if p.direction == "input")

    @property
    def output_ports(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.ports.values() if p.direction == "output")

    @property
    def is_flat(self) -> bool:
        """True when every instance is a library leaf (no hierarchy)."""
        return all(type(inst.ref) is str for inst in self.instances)

    def leaf_count(self) -> int:
        """Total leaf-instance count after full elaboration."""
        total = 0
        for inst in self.instances:
            total += 1 if inst.is_leaf else inst.module.leaf_count()
        return total

    def net_drivers(
        self, library: StdCellLibrary
    ) -> Dict[str, Tuple[Instance, str]]:
        """Map net -> (leaf instance, output pin) driving it.

        Only valid on flat modules; raises on multiply-driven nets.
        """
        drivers: Dict[str, Tuple[Instance, str]] = {}
        for inst in self.instances:
            cell = library.cell(inst.cell_name)
            for pin in cell.outputs:
                net = inst.conn.get(pin)
                if net is None:
                    continue
                if net in drivers:
                    raise SynthesisError(
                        f"{self.name}: net {net} multiply driven "
                        f"({drivers[net][0].name} and {inst.name})"
                    )
                drivers[net] = (inst, pin)
        return drivers

    def net_loads(
        self, library: StdCellLibrary
    ) -> Dict[str, List[Tuple[Instance, str]]]:
        """Map net -> list of (leaf instance, input pin) reading it."""
        loads: Dict[str, List[Tuple[Instance, str]]] = {}
        for inst in self.instances:
            cell = library.cell(inst.cell_name)
            for pin in cell.input_caps_ff:
                net = inst.conn.get(pin)
                if net is None:
                    continue
                loads.setdefault(net, []).append((inst, pin))
        return loads

    def cell_histogram(self, library: StdCellLibrary) -> Dict[str, int]:
        """Leaf-cell usage counts (flat modules)."""
        hist: Dict[str, int] = {}
        for inst in self.instances:
            hist[inst.cell_name] = hist.get(inst.cell_name, 0) + 1
        return hist

    def total_area_um2(self, library: StdCellLibrary) -> float:
        return sum(
            library.cell(inst.cell_name).area_um2 for inst in self.instances
        )

    # -- elaboration ----------------------------------------------------------

    def flatten(self) -> "Module":
        """Elaborate hierarchy into a flat leaf-only module.

        Instance names become ``parent/child``; internal nets of
        submodules become ``parent/net``.  Port connections splice child
        port nets onto the parent nets they are bound to.

        The expansion runs over precomputed leaf tables: every resolved
        net name is computed once and memoized per instantiation (not
        once per sink pin), children instantiated repeatedly replay
        their cached :meth:`_leaf_template`, and the flat module is
        assembled through a bulk path that skips the per-instance
        bookkeeping of :meth:`add_instance` (name uniqueness holds by
        construction: hierarchical paths of unique sibling names).
        """
        flat = Module(self.name)
        for port in self.ports.values():
            flat.add_port(port.name, port.direction)
        nets = flat.nets
        for net in self.nets:
            if net not in nets:
                nets[net] = None
        flat.set_clocks(self.clock_nets)
        entries: List[tuple] = []
        self._expand_into(entries, "", {}, [])
        instances = flat.instances
        names = flat._instance_names
        append = instances.append
        for iname, ref, conn in entries:
            # The expansion emits a fresh dict per entry, so the
            # instance takes ownership without another copy.
            append(Instance(name=iname, ref=ref, conn=conn))
            names[iname] = None
            for net in conn.values():
                # Unconditional store: cheaper than a membership probe,
                # and re-assigning an existing key keeps its position.
                nets[net] = None
        flat._revision += len(entries) + 1
        return flat

    def _leaf_template(self) -> List[tuple]:
        """Cached, module-relative table of every leaf under this module:
        ``(relative_name, cell_ref, {pin: relative_net})``.

        Internal nets carry their hierarchical path; nets bound to this
        module's ports appear under the port name, so an instantiation
        only has to splice port nets and prefix the rest.

        Staleness is checked against the whole subtree: the cache
        records ``(module, revision)`` for every module whose instances
        the expansion read — this one, direct-recursed descendants and
        template-consumed children alike — so a mutation anywhere below
        rebuilds the table.
        """
        if self._template_fresh():
            return self._leaf_template_cache[0]
        entries: List[tuple] = []
        deps: List[tuple] = []
        self._expand_into(entries, "", {}, deps)
        uniq = {id(m): (m, rev) for m, rev in deps}
        self._leaf_template_cache = (entries, list(uniq.values()))
        return entries

    def _template_fresh(self) -> bool:
        """Whether the cached leaf template matches the current subtree."""
        cached = self._leaf_template_cache
        return cached is not None and all(
            m._revision == rev for m, rev in cached[1]
        )

    def _expand_into(
        self,
        out: List[tuple],
        prefix: str,
        net_map: Dict[str, str],
        deps: List[tuple],
    ) -> None:
        """Append resolved leaf entries for everything under ``self``.

        ``net_map`` maps local net names to their names in the target
        namespace; unmapped nets are prefixed once and memoized into it.
        Children whose Module object is instantiated more than once in
        this module expand through their cached leaf template instead of
        re-walking their hierarchy per instantiation.  ``deps`` collects
        ``(module, revision)`` for every module this expansion reads, so
        template caches can detect staleness anywhere in the subtree.
        """
        deps.append((self, self._revision))
        counts: Dict[int, int] = {}
        for inst in self.instances:
            if not inst.is_leaf:
                key = id(inst.ref)
                counts[key] = counts.get(key, 0) + 1
        get = net_map.get
        for inst in self.instances:
            iname = prefix + inst.name
            if inst.is_leaf:
                items: Dict[str, str] = {}
                for pin, net in inst.conn.items():
                    r = get(net)
                    if r is None:
                        r = net_map[net] = (prefix + net) if prefix else net
                    items[pin] = r
                out.append((iname, inst.ref, items))
                continue
            child = inst.module
            cmap: Dict[str, str] = {}
            conn = inst.conn
            for pname in child.ports:
                if pname in conn:
                    pnet = conn[pname]
                    r = get(pnet)
                    if r is None:
                        r = net_map[pnet] = (
                            (prefix + pnet) if prefix else pnet
                        )
                    cmap[pname] = r
            cprefix = iname + "/"
            # Children instantiated repeatedly expand through their
            # cached leaf template; so does any child whose template is
            # already cached and fresh (e.g. a bitcell array shared by
            # successive escalation attempts) — the replay skips its
            # whole-subtree re-walk.
            if counts[id(child)] > 1 or child._template_fresh():
                tmpl = child._leaf_template()
                deps.extend(child._leaf_template_cache[1])
                cget = cmap.get
                for rname, ref, rconn in tmpl:
                    resolved: Dict[str, str] = {}
                    for pin, net in rconn.items():
                        r = cget(net)
                        if r is None:
                            r = cmap[net] = cprefix + net
                        resolved[pin] = r
                    out.append((cprefix + rname, ref, resolved))
            else:
                child._expand_into(out, cprefix, cmap, deps)

    def validate(self, library: StdCellLibrary) -> None:
        """Structural sanity check on a flat module.

        Confirms every leaf pin exists on its cell, every output port is
        driven, and no net has multiple drivers.  Runs over the compiled
        integer view (shared with STA/power on the same module); the
        slow :meth:`net_drivers` walk is only replayed to produce its
        detailed message when a multi-driver violation is detected.
        """
        from .netview import check_pins, check_single_driver, net_view

        view = net_view(self, library)
        driver_counts = check_single_driver(view)
        check_pins(view)
        undriven = [
            p
            for p in self.output_ports
            if driver_counts[view.net_id[p]] == 0
            and p not in (CONST0, CONST1)
        ]
        if undriven:
            raise SynthesisError(
                f"{self.name}: undriven output ports {undriven[:8]}"
            )


class NetlistBuilder:
    """Convenience wrapper the RTL generators use to assemble a module."""

    def __init__(self, name: str) -> None:
        self.module = Module(name)
        self._auto = 0
        self._const0_made = False
        self._const1_made = False

    # -- nets ----------------------------------------------------------------

    def net(self, hint: str = "n") -> str:
        self._auto += 1
        name = f"{hint}_{self._auto}"
        module = self.module
        if name not in module.nets:
            module.nets[name] = None
            module._revision += 1
        return name

    def nets(self, hint: str, count: int) -> List[str]:
        return [self.net(hint) for _ in range(count)]

    def inputs(self, name: str, width: int = 0) -> List[str]:
        if width == 0:
            return [self.module.add_port(name, "input")]
        return [self.module.add_port(n, "input") for n in bus(name, width)]

    def outputs(self, name: str, width: int = 0) -> List[str]:
        if width == 0:
            return [self.module.add_port(name, "output")]
        return [self.module.add_port(n, "output") for n in bus(name, width)]

    def const0(self) -> str:
        if not self._const0_made:
            self.module.add_instance("tie0_cell", "TIE0", {"Y": CONST0})
            self._const0_made = True
        return CONST0

    def const1(self) -> str:
        if not self._const1_made:
            self.module.add_instance("tie1_cell", "TIE1", {"Y": CONST1})
            self._const1_made = True
        return CONST1

    # -- instances ---------------------------------------------------------

    def cell(
        self, cell_name: str, hint: str = "", **conn: str
    ) -> Instance:
        self._auto += 1
        iname = f"{hint or cell_name.lower()}_{self._auto}"
        # kwargs give us a fresh dict to hand over without a copy.
        return self.module._add_instance_unchecked(iname, cell_name, conn)

    def submodule(self, sub: Module, hint: str = "", **conn: str) -> Instance:
        self._auto += 1
        iname = f"{hint or sub.name}_{self._auto}"
        return self.module._add_instance_unchecked(iname, sub, conn)

    # -- small logic helpers (return the output net) --------------------------

    def unary(self, cell_name: str, a: str, hint: str = "") -> str:
        y = self.net(hint or "y")
        self.cell(cell_name, hint=hint, A=a, Y=y)
        return y

    def binary(self, cell_name: str, a: str, b: str, hint: str = "") -> str:
        y = self.net(hint or "y")
        self.cell(cell_name, hint=hint, A=a, B=b, Y=y)
        return y

    def inv(self, a: str) -> str:
        return self.unary("INV_X1", a, hint="inv")

    def and2(self, a: str, b: str) -> str:
        return self.binary("AND2_X1", a, b, hint="and")

    def or2(self, a: str, b: str) -> str:
        return self.binary("OR2_X1", a, b, hint="or")

    def xor2(self, a: str, b: str) -> str:
        return self.binary("XOR2_X1", a, b, hint="xor")

    def nand2(self, a: str, b: str) -> str:
        return self.binary("NAND2_X1", a, b, hint="nand")

    def nor2(self, a: str, b: str) -> str:
        return self.binary("NOR2_X1", a, b, hint="nor")

    def mux2(self, d0: str, d1: str, sel: str) -> str:
        y = self.net("mux")
        self.cell("MUX2_X1", hint="mux", D0=d0, D1=d1, S=sel, Y=y)
        return y

    def full_adder(self, a: str, b: str, ci: str) -> Tuple[str, str]:
        s, co = self.net("fa_s"), self.net("fa_co")
        self.cell("FA_X1", hint="fa", A=a, B=b, CI=ci, S=s, CO=co)
        return s, co

    def half_adder(self, a: str, b: str) -> Tuple[str, str]:
        s, co = self.net("ha_s"), self.net("ha_co")
        self.cell("HA_X1", hint="ha", A=a, B=b, S=s, CO=co)
        return s, co

    def dff(self, d: str, clk: str, hint: str = "dff") -> str:
        q = self.net(f"{hint}_q")
        self.cell("DFF_X1", hint=hint, D=d, CK=clk, Q=q)
        return q

    def dff_bus(self, data: Sequence[str], clk: str, hint: str = "reg") -> List[str]:
        return [self.dff(d, clk, hint=hint) for d in data]

    def buffer(self, a: str, strength: int = 4) -> str:
        y = self.net("buf")
        self.cell(f"BUF_X{strength}", hint="buf", A=a, Y=y)
        return y

    # -- word-level helpers -----------------------------------------------------

    def ripple_adder(
        self,
        a: Sequence[str],
        b: Sequence[str],
        carry_in: Optional[str] = None,
        hint: str = "rca",
    ) -> List[str]:
        """Signed (two's complement) ripple-carry adder.

        Both operands must be equal width; returns ``width + 1`` sum bits
        with the extra MSB from sign extension.
        """
        if len(a) != len(b):
            raise SynthesisError("ripple_adder operands must match in width")
        width = len(a)
        a_ext = list(a) + [a[-1]]
        b_ext = list(b) + [b[-1]]
        sums: List[str] = []
        carry = carry_in
        for i in range(width + 1):
            if carry is None:
                s, carry = self.half_adder(a_ext[i], b_ext[i])
            else:
                s, carry = self.full_adder(a_ext[i], b_ext[i], carry)
            sums.append(s)
        return sums

    def finish(self) -> Module:
        return self.module


def sign_extend(builder: NetlistBuilder, word: Sequence[str], width: int) -> List[str]:
    """Pad a two's-complement word to ``width`` bits by repeating the MSB."""
    if len(word) > width:
        raise SynthesisError(f"cannot extend width {len(word)} to {width}")
    return list(word) + [word[-1]] * (width - len(word))


def zero_extend(
    builder: NetlistBuilder, word: Sequence[str], width: int
) -> List[str]:
    """Pad an unsigned word to ``width`` bits with constant zeros."""
    if len(word) > width:
        raise SynthesisError(f"cannot extend width {len(word)} to {width}")
    return list(word) + [builder.const0()] * (width - len(word))
