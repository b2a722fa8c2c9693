"""Decision procedures for constraint problems over ordered and
homogeneous base structures.

The package covers four layers: finite relational structures and
homomorphism search (`relstruct`), local-consistency derivation over
pluggable pattern spaces (`consistency`), polymorphism and identity
machinery for finite templates (`polyengine`), and two infinite-domain
front ends — expansions of the rational order (`temporal`) and reducts
of the generic tournament and random graph (`homog`) — with a common
command line in `cli`.
"""

from .consistency import (
    EMPTY_DERIVED,
    ConsistencyState,
    FinitePatterns,
    PatternSpace,
    establish_kl,
)
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    ClassMismatch,
    DomainMismatch,
    MalformedPattern,
    OrbitCspError,
    ParameterError,
    ParseError,
    PreconditionFailed,
    ShapeUnsupported,
    SignatureMismatch,
    UnknownVariable,
    UnsupportedBase,
)
from .homog import (
    GRAPH,
    TOURNAMENT,
    Base,
    HomogPatterns,
    HomogTemplate,
    Label,
    LabeledType,
    PairBehavior,
    Shape,
    TypeSetRelation,
    Verdict,
    VerdictKind,
    classify_reduct,
    confirm_no_behavior,
    enumerate_types,
    kfree,
    search_behavior,
    solve_instance_brute,
    type_set_relation,
)
from .polyengine import (
    AND2,
    CONST0,
    CONST1,
    CYCLIC,
    IDEMPOTENT,
    MAJ3,
    MAJORITY,
    MINORITY,
    OR2,
    SEMILATTICE,
    SIGGERS,
    WNU,
    XOR3,
    BooleanClass,
    IdentitySystem,
    OpTable,
    boolean_classify,
    find_polymorphism,
    preserves_op,
    satisfies_identities,
    schaefer_solve,
)
from .relstruct import (
    FiniteStructure,
    Instance,
    Relation,
    hom_search,
    make_instance,
)
from .temporal import (
    LT,
    LT_TYPE,
    SignedWeakOrderType,
    TemporalCounterexample,
    TemporalOp,
    TemporalPatterns,
    TemporalRelation,
    TemporalTemplate,
    TemporalVerdict,
    WeakOrderType,
    apply_temporal_op,
    brute_oracle,
    build_afin,
    classify_temporal,
    enumerate_weak_orders,
    free_sets,
    preserves_temporal,
    solve_master,
    temporal_relation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
