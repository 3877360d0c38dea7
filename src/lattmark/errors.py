"""Exception hierarchy.

Three failure classes matter to callers (and to the CLI's exit codes):
input validation (2), search bounds (3), and internal invariant breaches (4).
"""

from __future__ import annotations


class LattmarkError(Exception):
    """Base class for all package errors."""


class InputError(LattmarkError):
    """A supplied value violates a documented precondition."""

    exit_code = 2


class BoundError(LattmarkError):
    """A configured enumeration or search bound was exceeded."""

    exit_code = 3


class InvariantError(LattmarkError):
    """A guaranteed internal property failed; indicates a construction bug."""

    exit_code = 4


class NotReflexive(InputError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"relation is not reflexive at {element!r}")


class NotAntisymmetric(InputError):
    def __init__(self, x, y):
        self.witness = (x, y)
        super().__init__(f"relation is not antisymmetric: {x!r} and {y!r} are mutually related")


class NotTransitive(InputError):
    def __init__(self, x, y, z):
        self.witness = (x, y, z)
        super().__init__(f"relation is not transitive on ({x!r}, {y!r}, {z!r})")


class NotALattice(InputError):
    def __init__(self, x, y, bounds, kind="upper"):
        self.witness = (x, y)
        self.bounds = tuple(sorted(bounds))
        super().__init__(
            f"pair ({x!r}, {y!r}) has no unique least {kind} bound; minimal candidates: {self.bounds}"
        )


class SearchBoundExceeded(BoundError):
    def __init__(self, explored, bound, search="stable-matching"):
        self.explored = explored
        self.bound = bound
        super().__init__(f"{search} search explored {explored} nodes, bound is {bound}")

    @classmethod
    def candidate_scan(cls, partners, limit):
        """A spec too large to list the candidate subsets of; no node explored."""
        exc = cls(0, limit)
        exc.args = (f"a choice spec names {partners} partners, its candidate scan is limited to {limit}",)
        return exc


class UnknownElementId(InputError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"unknown element id {element!r}")


class UnknownPartnerId(InputError):
    def __init__(self, agent, partner):
        self.agent = agent
        self.partner = partner
        super().__init__(f"{partner!r} is not a declared partner for agent {agent!r}")

    @classmethod
    def reversed_pair(cls, worker, firm):
        """A pair given as (worker, firm), both agents declared."""
        exc = cls(firm, worker)
        exc.args = (f"pair ({worker!r}, {firm!r}) is reversed: {worker!r} is a worker, where the firm goes",)
        return exc


class DuplicateId(InputError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"duplicate id {element!r}")


class AlphaArgumentsComparable(InputError):
    def __init__(self, x, y):
        self.witness = (x, y)
        super().__init__(f"alpha arguments {x!r} and {y!r} are comparable; an antichain is required")


class OverlappingRotationAgents(InputError):
    def __init__(self, rot1, rot2, shared):
        self.witness = (rot1, rot2, tuple(sorted(shared)))
        super().__init__(f"rotations {rot1!r} and {rot2!r} share agents {sorted(shared)}")


class SpecError(InputError):
    """A choice-function spec or market violates a structural invariant."""


class NotLowerClosed(InputError):
    def __init__(self, member, missing):
        self.witness = (member, missing)
        super().__init__(f"set contains {member!r} but not its predecessor {missing!r}")


class NotRepresentable(InvariantError):
    def __init__(self, detail):
        super().__init__(f"matching is not representable by a rotation set: {detail}")


class ProjectionNotStable(InvariantError):
    def __init__(self, detail):
        super().__init__(f"projected matching is not stable in the base market: {detail}")


class NonLatticeStructure(InvariantError):
    def __init__(self, detail):
        super().__init__(f"stable matchings do not carry the expected lattice structure: {detail}")


class IsomorphismFailure(InvariantError):
    def __init__(self, detail):
        super().__init__(f"synthesized market failed its lattice certificate: {detail}")
