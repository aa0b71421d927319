from pathlib import Path

from setuptools import find_packages, setup

README = Path(__file__).parent / "README.md"

setup(
    name="repro-gradient-clock-sync",
    version="1.8.0",
    description=(
        "Executable reproduction of 'Gradient Clock Synchronization' "
        "(Fan & Lynch, PODC 2004): simulator, lower-bound adversaries, "
        "experiments E01-E16, a parallel scenario-sweep engine, a "
        "dynamic-topology & mobility subsystem, a live runtime "
        "(virtual-time / asyncio / UDP transports), one batched "
        "simulation loop held byte-identical to a naive test-only "
        "reference loop, "
        "a stdlib-only SVG observability layer (dashboards, "
        "mobility animations, live streaming tails, sweep reports), "
        "repro-check, an AST-based invariant linter enforcing the "
        "determinism / float-discipline / layering / pickle-safety / "
        "registry-sync contracts statically, and repro-serve, a "
        "sweep-as-a-service daemon with a content-addressed result "
        "store, multi-client dedup, and crash-resumable sweeps"
    ),
    long_description=README.read_text() if README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
        "networkx>=3.0",
    ],
    extras_require={
        "test": ["pytest>=7.0", "hypothesis>=6.0"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments = repro.experiments.cli:main",
            "repro-live = repro.rt.cli:main",
            "repro-viz = repro.viz.cli:main",
            "repro-check = repro.check.cli:main",
            "repro-serve = repro.serve.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Distributed Computing",
    ],
    keywords="clock-synchronization distributed-systems simulation PODC",
)
