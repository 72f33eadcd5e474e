import pathlib
import sys

# a run leaves no bytecode cache in the package, which a re-import would read
sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))
