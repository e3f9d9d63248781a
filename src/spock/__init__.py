"""spock: a signed build-recipe gatekeeper for container images.

Only images built from cryptographically signed, trusted recipes may
exist or run. Every image carries its full lineage; revoking one node
cascades to every dependent build with a forensic archive left behind;
rebuilds are quarantined and diffed instead of silently replacing
trusted artifacts.
"""

from .builder import (
    BuildResult,
    DiffReport,
    ExecEngine,
    MockEngine,
    StepDiff,
    build,
    diff_rebuild,
)
from .crypto import (
    PrivateKey,
    PublicKey,
    Signature,
    decode_text,
    digest,
    encode_text,
    keygen,
    sign,
)
from .errors import (
    AlreadyDistrustedError,
    AlreadyRegisteredError,
    AmbiguousNodeError,
    DuplicateEntityError,
    EngineError,
    IntegrityError,
    LedgerExistsError,
    NotFoundError,
    ParentRejectedError,
    ParseError,
    PolicyError,
    PurgedError,
    RebuildDeniedError,
    RunDeniedError,
    SignatureInvalidError,
    SpockError,
    TamperError,
    UntrustedSignerError,
)
from .ledger import Ledger, ValidationEntry, ValidationReport
from .provenance import (
    LineageNode,
    children,
    descendants,
    export_tree,
    lineage,
    lineage_problems,
    short_labels,
    show_content,
)
from .recipe import Recipe, parse, register_child, register_root
from .records import (
    ImageId,
    ImageRecord,
    LedgerEvent,
    RecipeRecord,
    TrustedEntity,
)
from .revocation import ArchiveBundle, distrust, list_archives, open_archive, remove
from .rungate import AdmissionDecision, RunOutcome, check_runnable, run
from .verify import Problem

__version__ = "0.1.0"

__all__ = [
    "AdmissionDecision",
    "AlreadyDistrustedError",
    "AlreadyRegisteredError",
    "AmbiguousNodeError",
    "ArchiveBundle",
    "BuildResult",
    "DiffReport",
    "DuplicateEntityError",
    "EngineError",
    "ExecEngine",
    "ImageId",
    "ImageRecord",
    "IntegrityError",
    "Ledger",
    "LedgerEvent",
    "LedgerExistsError",
    "LineageNode",
    "MockEngine",
    "NotFoundError",
    "ParentRejectedError",
    "ParseError",
    "PolicyError",
    "PrivateKey",
    "Problem",
    "PublicKey",
    "PurgedError",
    "RebuildDeniedError",
    "Recipe",
    "RecipeRecord",
    "RunDeniedError",
    "RunOutcome",
    "Signature",
    "SignatureInvalidError",
    "SpockError",
    "StepDiff",
    "TamperError",
    "TrustedEntity",
    "UntrustedSignerError",
    "ValidationEntry",
    "ValidationReport",
    "build",
    "check_runnable",
    "children",
    "decode_text",
    "descendants",
    "digest",
    "diff_rebuild",
    "distrust",
    "encode_text",
    "export_tree",
    "keygen",
    "lineage",
    "lineage_problems",
    "list_archives",
    "open_archive",
    "parse",
    "register_child",
    "register_root",
    "remove",
    "run",
    "short_labels",
    "show_content",
    "sign",
]
