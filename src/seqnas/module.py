"""Minimal layer container: parameter registration and train/eval mode."""


class Module:
    def __init__(self):
        self._params = []
        self._children = []
        self.training = True

    def register(self, tensor):
        self._params.append(tensor)
        return tensor

    def add_child(self, child):
        self._children.append(child)
        return child

    def parameters(self):
        """Every registered tensor once, in walk() preorder of first registration."""
        return list({id(p): p for m in self.walk() for p in m._params}.values())

    def walk(self):
        yield self
        for c in self._children:
            yield from c.walk()

    def train(self, mode=True):
        for m in self.walk():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()
