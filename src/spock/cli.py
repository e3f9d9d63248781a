"""Command-line surface binding all modules.

Settings resolve as flag > environment variable > config file > default.
Environment variables: SPOCK_LEDGER (ledger directory), SPOCK_SIGNER
(entity id used for signing), SPOCK_KEY (private key file). The config
file is JSON at ~/.config/spock/config.json (or --config PATH) and may
set ledger, signer, key, build_command, and run_command.

Exit codes: 0 success; 2 usage; 3 not found; 4 integrity or signature
failure; 5 policy denial; 10 run or admission denied; for `run`, the
engine's exit status is propagated. Errors print one line to stderr in
the form ``error: <TOKEN>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import builder, crypto, provenance, recipe, revocation, rungate
from .errors import NotFoundError, RunDeniedError, SpockError
from .ledger import Ledger

DEFAULT_RUN_COMMAND = "docker run --rm {image}"
DEFAULT_BUILD_COMMAND = "docker build -f {recipe} -t {tag} {context}"


class ConfigError(SpockError):
    token = "CONFIG"
    exit_code = 2


class Config:
    """Resolved settings for one invocation."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = self._load_file(args)

    @staticmethod
    def _default_config_path() -> Path:
        base = os.environ.get("XDG_CONFIG_HOME", os.path.join(os.path.expanduser("~"), ".config"))
        return Path(base) / "spock" / "config.json"

    def _load_file(self, args: argparse.Namespace) -> dict:
        path = Path(args.config) if args.config else self._default_config_path()
        if not path.is_file():
            if args.config:
                raise ConfigError(f"config file not found: {path}")
            return {}
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file must hold a JSON object: {path}")
        return data

    def _resolve(self, flag: str | None, env: str, key: str, default: str | None) -> str | None:
        if flag:
            return flag
        if os.environ.get(env):
            return os.environ[env]
        if self.file_values.get(key):
            return str(self.file_values[key])
        return default

    @property
    def ledger_path(self) -> str:
        value = self._resolve(
            getattr(self.args, "ledger", None),
            "SPOCK_LEDGER",
            "ledger",
            os.path.join(os.path.expanduser("~"), ".local", "share", "spock", "ledger"),
        )
        assert value is not None
        return value

    @property
    def signer(self) -> str:
        value = self._resolve(getattr(self.args, "signer", None), "SPOCK_SIGNER", "signer", None)
        if not value:
            raise ConfigError("no signer configured (use --signer, SPOCK_SIGNER, or the config file)")
        return value

    @property
    def key_path(self) -> str:
        value = self._resolve(getattr(self.args, "key", None), "SPOCK_KEY", "key", None)
        if not value:
            raise ConfigError("no private key configured (use --key, SPOCK_KEY, or the config file)")
        return value

    @property
    def run_command(self) -> str:
        value = self._resolve(
            getattr(self.args, "run_command", None), "", "run_command", DEFAULT_RUN_COMMAND
        )
        assert value is not None
        return value

    @property
    def build_command(self) -> str:
        value = self._resolve(
            getattr(self.args, "build_command", None), "", "build_command", DEFAULT_BUILD_COMMAND
        )
        assert value is not None
        return value

    def private_key(self) -> crypto.PrivateKey:
        path = Path(self.key_path)
        if not path.is_file():
            raise ConfigError(f"private key file not found: {path}")
        return crypto.read_private_key(path)

    def open_ledger(self) -> Ledger:
        return Ledger.open(self.ledger_path)


def _emit(args: argparse.Namespace, human: str, payload) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif human:
        print(human)


def _read_recipe_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    p = Path(path)
    if not p.is_file():
        raise NotFoundError(f"recipe file not found: {path}")
    return p.read_text(encoding="utf-8")


def _engine_for(args: argparse.Namespace, cfg: Config):
    if args.engine == "mock":
        return builder.MockEngine(seed=args.seed)
    return builder.ExecEngine(cfg.build_command)


def _record_dict(record) -> dict:
    data = record.to_record_dict()
    data["status"] = record.status
    return data


# ----------------------------------------------------------------------
# subcommand handlers


def cmd_init(args, cfg: Config) -> int:
    Ledger.init(cfg.ledger_path)
    _emit(args, f"initialized ledger at {cfg.ledger_path}", {"ledger": cfg.ledger_path})
    return 0


def cmd_keygen(args, cfg: Config) -> int:
    private_path = Path(args.private or cfg.key_path)
    public_path = Path(args.public) if args.public else Path(str(private_path) + ".pub")
    if private_path.exists():
        raise SpockError(f"refusing to overwrite existing key: {private_path}")
    public, private = crypto.keygen()
    private_path.parent.mkdir(parents=True, exist_ok=True)
    crypto.write_private_key(private_path, private)
    crypto.write_public_key(public_path, public)
    _emit(
        args,
        f"wrote private key {private_path}\nwrote public key {public_path}",
        {"private": str(private_path), "public": str(public_path)},
    )
    return 0


def cmd_trust_add(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    public_key = crypto.read_public_key(args.pubkey)
    entity = ledger.add_entity(args.entity_id, public_key)
    _emit(
        args,
        f"trusted {entity.entity_id}",
        {"entity_id": entity.entity_id, "status": entity.status},
    )
    return 0


def cmd_trust_list(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    entities = ledger.list_entities()
    lines = [f"{e.entity_id} {e.status}" for e in entities]
    _emit(
        args,
        "\n".join(lines) if lines else "no trusted entities",
        [{"entity_id": e.entity_id, "status": e.status} for e in entities],
    )
    return 0


def cmd_trust_distrust(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    bundle = revocation.distrust(ledger, args.entity_id, args.reason)
    _emit(
        args,
        f"distrusted {args.entity_id}; purged {len(bundle.removed_recipes)} recipes, "
        f"{len(bundle.removed_images)} images; archive {bundle.bundle_id}",
        {
            "entity_id": args.entity_id,
            "bundle_id": bundle.bundle_id,
            "purged_recipes": [r.recipe_hash for r in bundle.removed_recipes],
            "purged_images": [i.image_id for i in bundle.removed_images],
        },
    )
    return 0


def cmd_root(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    text = _read_recipe_text(args.file)
    rec = recipe.register_root(ledger, text, cfg.signer, cfg.private_key())
    _emit(args, f"registered root recipe {rec.recipe_hash}", _record_dict(rec))
    return 0


def cmd_child(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    text = _read_recipe_text(args.file)
    rec = recipe.register_child(ledger, text, cfg.signer, cfg.private_key())
    _emit(
        args,
        f"registered child recipe {rec.recipe_hash} (parent {rec.parent_image_id})",
        _record_dict(rec),
    )
    return 0


def cmd_build(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    kind, record = ledger.resolve(args.recipe_hash)
    if kind != "recipe":
        raise NotFoundError(f"not a recipe: {args.recipe_hash}")
    image = builder.build(
        ledger, record.recipe_hash, _engine_for(args, cfg), cfg.signer, cfg.private_key()
    )
    _emit(args, f"built image {image.image_id}", _record_dict(image))
    return 0


def cmd_diff_rebuild(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    kind, record = ledger.resolve(args.image_id)
    if kind != "image":
        raise NotFoundError(f"not an image: {args.image_id}")
    report = builder.diff_rebuild(ledger, record.image_id, _engine_for(args, cfg))
    lines = [f"verdict {report.verdict} for {report.target_image_id}"]
    lines.append(f"rebuilt digest {report.rebuilt_digest}")
    for diff in report.step_diffs:
        lines.append(f"step {diff.index}: trusted {diff.trusted} rebuilt {diff.rebuilt}")
    _emit(args, "\n".join(lines), report.to_dict())
    return 0


def cmd_list(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    recipes = ledger.list_recipes(kind=args.kind, status=args.status, signer=args.signer_filter)
    lines = [
        f"{r.recipe_hash} {r.kind} {r.status} signer={r.signer_id} "
        f"images={len(ledger.images_of(r.recipe_hash))}"
        for r in recipes
    ]
    _emit(
        args,
        "\n".join(lines) if lines else "no recipes",
        [_record_dict(r) for r in recipes],
    )
    return 0


def cmd_validate(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    report = ledger.validate_all()
    lines = [f"FAIL {e.ref} {e.check}: {e.detail}" for e in report.failures()]
    records = len(ledger.recipes) + len(ledger.images) + len(ledger.entities)
    if report.ok:
        lines.append(f"validation passed ({len(report.entries)} checks on {records} records)")
    else:
        lines.append(
            f"validation FAILED ({len(report.failures())} of {len(report.entries)} checks failed)"
        )
    _emit(args, "\n".join(lines), report.to_dict())
    return 0 if report.ok else 4


def cmd_images(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    kind, record = ledger.resolve(args.recipe_hash)
    if kind != "recipe":
        raise NotFoundError(f"not a recipe: {args.recipe_hash}")
    images = ledger.images_of(record.recipe_hash)
    lines = [f"{i.image_id} {i.status} digest={i.image_digest}" for i in images]
    _emit(
        args,
        "\n".join(lines) if lines else "no images",
        [_record_dict(i) for i in images],
    )
    return 0


def cmd_info(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    kind, record = ledger.resolve(args.node)
    if kind == "recipe":
        images = ledger.images_of(record.recipe_hash)
        lines = [
            f"recipe: {record.recipe_hash}",
            f"kind: {record.kind}",
            f"status: {record.status}",
            f"signer: {record.signer_id}",
            f"registered: {record.to_record_dict()['registered_at']}",
            f"parent image: {record.parent_image_id or '-'}",
            f"images: {', '.join(i.image_id for i in images) or '-'}",
        ]
        payload = _record_dict(record)
    else:
        lines = [
            f"image: {record.image_id}",
            f"recipe: {record.recipe_hash}",
            f"status: {record.status}",
            f"signer: {record.signer_id}",
            f"parent image: {record.parent_image_id or '-'}",
            f"image digest: {record.image_digest}",
            f"steps recorded: {len(record.step_digests)}",
        ]
        payload = _record_dict(record)
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_content(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    text = provenance.show_content(ledger, args.node, with_lineage=args.lineage)
    if args.json:
        print(json.dumps({"node": args.node, "content": text}, indent=2, sort_keys=True))
    else:
        sys.stdout.write(text)
    return 0


def cmd_lineage(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    path = provenance.lineage(ledger, args.node)
    labels = provenance.short_labels(ledger)
    human = " -> ".join(labels[node.recipe_hash] for node in path)
    payload = {
        "path": [
            {
                "recipe_hash": n.recipe_hash,
                "image_id": n.image_id,
                "signer": n.signer_id,
                "kind": n.kind,
                "recipe_status": n.recipe_status,
                "image_status": n.image_status,
            }
            for n in path
        ],
        "labels": [labels[n.recipe_hash] for n in path],
    }
    _emit(args, human, payload)
    return 0


def cmd_tree(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    text = provenance.export_tree(ledger, format=args.format)
    sys.stdout.write(text)
    return 0


def cmd_remove(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    bundle = revocation.remove(ledger, args.node, args.reason)
    _emit(
        args,
        f"purged {len(bundle.removed_recipes)} recipes, {len(bundle.removed_images)} images; "
        f"archive {bundle.bundle_id}",
        {
            "bundle_id": bundle.bundle_id,
            "reason": bundle.reason,
            "purged_recipes": [r.recipe_hash for r in bundle.removed_recipes],
            "purged_images": [i.image_id for i in bundle.removed_images],
        },
    )
    return 0


def cmd_archives_list(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    bundles = revocation.list_archives(ledger)
    lines = [
        f"{b['bundle_id']} {b['created_at']} recipes={b['recipes']} images={b['images']} "
        f"reason={b['reason']}"
        for b in bundles
    ]
    _emit(args, "\n".join(lines) if lines else "no archives", bundles)
    return 0


def cmd_archives_show(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    bundle = revocation.open_archive(ledger, args.bundle_id)
    lines = [
        f"bundle {bundle.bundle_id}",
        f"created {bundle.manifest['created_at']}",
        f"reason {bundle.reason}",
    ]
    for item in bundle.manifest["items"]:
        lines.append(f"  {item['type']} {item['id']}")
    lines.append("integrity ok")
    _emit(args, "\n".join(lines), bundle.manifest)
    return 0


def cmd_check(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    decision = rungate.check_runnable(ledger, args.image_id)
    lines = [f"{decision.verdict} {decision.image_id}"]
    for reason in decision.reasons:
        lines.append(f"  reason: {reason}")
    _emit(args, "\n".join(lines), decision.to_dict())
    return 0 if decision.allowed else 10


def cmd_run(args, cfg: Config) -> int:
    ledger = cfg.open_ledger()
    outcome = rungate.run(ledger, args.image_id, cfg.run_command)
    if not outcome.spawned:
        raise RunDeniedError(f"image {args.image_id} denied: {'; '.join(outcome.decision.reasons)}")
    assert outcome.exit_status is not None
    return outcome.exit_status


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--ledger", help="ledger directory (env SPOCK_LEDGER)")
    base.add_argument("--config", help="config file (default ~/.config/spock/config.json)")
    base.add_argument("--json", action="store_true", help="machine-readable output")

    signing = argparse.ArgumentParser(add_help=False)
    signing.add_argument("--signer", help="signing entity id (env SPOCK_SIGNER)")
    signing.add_argument("--key", help="private key file (env SPOCK_KEY)")

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--engine", choices=["mock", "exec"], default="mock")
    engine.add_argument("--seed", default="0", help="mock engine seed")
    engine.add_argument("--build-command", dest="build_command",
                        help="exec engine template with {recipe} {context} {tag}")

    parser = argparse.ArgumentParser(
        prog="spock",
        description="Signed build-recipe gatekeeper for container images.",
        epilog=(
            "environment: SPOCK_LEDGER (ledger directory), SPOCK_SIGNER "
            "(signing entity id), SPOCK_KEY (private key file); config file: "
            "~/.config/spock/config.json or --config PATH (keys: ledger, "
            "signer, key, build_command, run_command); precedence: flag > "
            "environment > config file > default"
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="<command>", required=True)

    sub.add_parser("init", parents=[base], help="create an empty ledger").set_defaults(fn=cmd_init)

    p = sub.add_parser("keygen", parents=[base, signing], help="generate a signing key pair")
    p.add_argument("--private", help="private key path (default: configured key)")
    p.add_argument("--public", help="public key path (default: <private>.pub)")
    p.set_defaults(fn=cmd_keygen)

    trust = sub.add_parser("trust", parents=[base], help="manage trusted entities")
    trust_sub = trust.add_subparsers(dest="subcommand", metavar="<action>", required=True)
    p = trust_sub.add_parser("add", parents=[base], help="register a trusted public key")
    p.add_argument("entity_id")
    p.add_argument("pubkey", help="public key PEM file")
    p.set_defaults(fn=cmd_trust_add)
    p = trust_sub.add_parser("list", parents=[base], help="list entities")
    p.set_defaults(fn=cmd_trust_list)
    p = trust_sub.add_parser("distrust", parents=[base],
                             help="distrust an entity and purge everything it signed")
    p.add_argument("entity_id")
    p.add_argument("--reason", required=True)
    p.set_defaults(fn=cmd_trust_distrust)

    p = sub.add_parser("root", parents=[base, signing],
                       help="register a root recipe (external FROM)")
    p.add_argument("file", help="recipe file, or - for stdin")
    p.set_defaults(fn=cmd_root)

    p = sub.add_parser("child", parents=[base, signing],
                       help="register a child recipe (FROM trusted:<image-id>)")
    p.add_argument("file", help="recipe file, or - for stdin")
    p.set_defaults(fn=cmd_child)

    p = sub.add_parser("build", parents=[base, signing, engine],
                       help="build a live recipe into an image")
    p.add_argument("recipe_hash", help="recipe hash or unique prefix")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("diff-rebuild", parents=[base, engine],
                       help="rebuild into quarantine and diff against the trusted image")
    p.add_argument("image_id", help="image id or unique prefix")
    p.set_defaults(fn=cmd_diff_rebuild)

    p = sub.add_parser("list", parents=[base], help="list recipes")
    p.add_argument("--kind", choices=["root", "child"])
    p.add_argument("--status", choices=["live", "purged"])
    p.add_argument("--signer", dest="signer_filter", help="only recipes signed by this entity")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("validate", parents=[base], help="verify every record and signature")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("images", parents=[base], help="list the images of a recipe")
    p.add_argument("recipe_hash", help="recipe hash or unique prefix")
    p.set_defaults(fn=cmd_images)

    p = sub.add_parser("info", parents=[base], help="show a node's record")
    p.add_argument("node")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("content", parents=[base], help="show recipe content")
    p.add_argument("node")
    p.add_argument("--lineage", action="store_true", help="include every recipe on the path")
    p.set_defaults(fn=cmd_content)

    p = sub.add_parser("lineage", parents=[base], help="print the path from root to a node")
    p.add_argument("node")
    p.set_defaults(fn=cmd_lineage)

    p = sub.add_parser("tree", parents=[base], help="export the whole forest")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("remove", parents=[base],
                       help="purge a node and all dependents, archiving them")
    p.add_argument("node")
    p.add_argument("--reason", required=True)
    p.set_defaults(fn=cmd_remove)

    archives = sub.add_parser("archives", parents=[base], help="inspect forensic archives")
    archives_sub = archives.add_subparsers(dest="subcommand", metavar="<action>", required=True)
    p = archives_sub.add_parser("list", parents=[base])
    p.set_defaults(fn=cmd_archives_list)
    p = archives_sub.add_parser("show", parents=[base])
    p.add_argument("bundle_id")
    p.set_defaults(fn=cmd_archives_show)

    p = sub.add_parser("check", parents=[base], help="admission check for an image")
    p.add_argument("image_id")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", parents=[base], help="run an image if and only if it is trusted")
    p.add_argument("image_id")
    p.add_argument("--run-command", dest="run_command",
                   help="command template with {image} (default: docker run --rm {image})")
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config(args)
        return args.fn(args, cfg)
    except SpockError as exc:
        print(f"error: {exc.token}: {exc.message}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
